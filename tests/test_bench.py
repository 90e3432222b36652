import csv
import dataclasses
import hashlib
import random
import time
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import factorbench.bench
import factorbench.primegen
from factorbench import errors
from factorbench.arith import FIRST_TEN_PRIMES, is_probable_prime
from factorbench.bench import (
    ALGORITHMS,
    BenchConfig,
    BenchRecord,
    FactorOutcome,
    RESULTS_CSV_HEADER,
    STATUSES,
    TIMEOUT_SLACK_SECONDS,
    _outcome_violation,
    read_results_csv,
    run_attempt,
    run_bench,
    verify_outcomes,
    write_results_csv,
)
from factorbench.pollard import RhoTrace
from factorbench.primegen import (
    MAX_BITS,
    DatasetSpec,
    FixedGroup,
    generate_dataset,
    load_dataset_spec,
    make_semiprime,
    random_prime,
    random_semiprime,
)
from factorbench.sieve import QsParams, QsTrace


FIXTURE = Path(__file__).parent / "data" / "results_fixture.csv"
# a well-formed row of the fixture
GOOD_ROW = "581363,29,20047,5,15,20,qs,success,20047,0.1830000,60,600,6,6238832819430974754"


def small_dataset(count=3, seed=2):
    spec = DatasetSpec(seed=seed, groups=(FixedGroup(count, 10, 12, 22),))
    return generate_dataset(spec)


def seeded(make):
    """Draws make(rng) from a seeded generator, so a small drawn seed still
    gives a number of full width."""
    return st.builds(lambda seed: make(random.Random(seed)), st.integers(0, 2**32))


def kinds_of_n():
    """The kinds of n from 2 to MAX_BITS bits that an algorithm's entry takes."""
    widths = st.integers(2, MAX_BITS)
    return st.one_of(
        st.tuples(st.integers(3, 32), st.integers(3, 32)).flatmap(
            lambda bits: seeded(lambda rng: random_semiprime(*bits, None, rng).n)
        ),
        st.sampled_from([2, 3]),
        widths.flatmap(lambda bits: seeded(lambda rng: random_prime(bits, rng))),
        seeded(lambda rng: rng.randrange(2, 2 ** (MAX_BITS // 2)) ** 2),
        st.tuples(st.integers(2, 64), st.integers(2, 8)).flatmap(
            lambda be: seeded(lambda rng: random_prime(be[0], rng) ** be[1])
        ),
        seeded(lambda rng: rng.choice(FIRST_TEN_PRIMES) * rng.randrange(2, 2 ** (MAX_BITS - 5))),
        widths.flatmap(lambda bits: seeded(lambda rng: rng.randrange(3, 2**bits, 2))),
    )


class TestRunBench:
    def test_cardinality(self):
        records = run_bench(small_dataset(3), BenchConfig(budget_seconds=30.0))
        assert len(records) == 6  # 3 semiprimes x 2 algorithms

    def test_success_records_verify(self):
        records = run_bench(small_dataset(3), BenchConfig(budget_seconds=30.0))
        for record in records:
            out = record.outcome
            assert out.status == "success"
            assert out.n % out.factor == 0 and 1 < out.factor < out.n

    @pytest.mark.parametrize(
        "workers, rows, cpus, pool_size",
        [
            (100_000, 2, 4, 2),  # capped at the task count
            (100_000, 6, 4, 4),  # capped at the CPU count
            (3, 6, 4, 3),  # under both caps
            (100_000, 6, None, None),  # an unknown CPU count runs in-process
            (2, 1, 4, None),  # one task runs in-process
        ],
    )
    def test_pool_size_capped(self, monkeypatch, workers, rows, cpus, pool_size):
        sizes = []

        class RecordingPool:
            """Stands in for ProcessPoolExecutor without starting a process."""

            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc_info):
                return False

            def map(self, fn, tasks):
                return map(fn, tasks)

        monkeypatch.setattr(factorbench.bench, "ProcessPoolExecutor", RecordingPool)
        monkeypatch.setattr(factorbench.bench.os, "cpu_count", lambda: cpus)
        cfg = BenchConfig(budget_seconds=30.0, algorithms=("pollard",), workers=workers)
        records = run_bench(small_dataset(rows), cfg)
        assert len(records) == rows
        assert sizes == ([] if pool_size is None else [pool_size])

    def test_dataset_order_preserved(self):
        dataset = small_dataset(4)
        records = run_bench(dataset, BenchConfig(budget_seconds=30.0, algorithms=("pollard",)))
        assert [r.semiprime.n for r in records] == [s.n for s in dataset]

    def test_empty_dataset_rejected(self):
        with pytest.raises(ValueError):
            run_bench([], BenchConfig())

    def test_replay_determinism(self):
        dataset = small_dataset(3)
        cfg = BenchConfig(budget_seconds=30.0, seed=5)
        a = run_bench(dataset, cfg)
        b = run_bench(dataset, cfg)
        assert [(r.outcome.status, r.outcome.factor, r.outcome.seed) for r in a] == [
            (r.outcome.status, r.outcome.factor, r.outcome.seed) for r in b
        ]

    def test_workers_scheduling_independence(self):
        dataset = small_dataset(4)
        fields = lambda rs: [
            (r.semiprime.n, r.outcome.algorithm, r.outcome.status, r.outcome.factor, r.outcome.seed)
            for r in rs
        ]
        sequential = run_bench(dataset, BenchConfig(budget_seconds=30.0, workers=1))
        pooled = run_bench(dataset, BenchConfig(budget_seconds=30.0, workers=2))
        assert fields(sequential) == fields(pooled)

    def test_timeout_status_on_hard_input(self, expire_after):
        sp = random_semiprime(30, 30, 60, random.Random(44))
        # a first window of 10**6 candidates can sieve in under 0.1 s, with
        # about 1300 polls, so the clock runs the budget out at its 100th read
        expire_after(100)
        config = BenchConfig(
            budget_seconds=0.05, algorithms=("qs",), qs_params=QsParams(m_count=10**6)
        )
        records = run_bench([sp], config)
        assert records[0].outcome.status == "timeout"
        assert records[0].outcome.factor is None
        # trace counters survive the timeout
        assert records[0].outcome.iterations >= 1
        assert records[0].outcome.b_param is not None

    def test_error_status_on_prime(self):
        # both algorithms screen out a prime before any other work
        for algorithm in ("pollard", "qs"):
            for n in (613, 1000003):
                outcome = run_attempt(algorithm, n, seed=0, budget_seconds=5.0)
                assert (outcome.status, outcome.factor, outcome.iterations) == ("error", None, 0)
                assert (outcome.b_param, outcome.m_param) == (None, None)

    def test_per_record_seeds_differ(self):
        records = run_bench(small_dataset(2), BenchConfig(budget_seconds=30.0))
        seeds = {r.outcome.seed for r in records}
        assert len(seeds) == len(records)


class TestOutcomePin:
    """The 40- and 50-bit rows of the committed bit grid, benched with both
    algorithms, give the same results, `elapsed_seconds` apart. A change that
    moves any factor, status, round count, final (B, M), rho iteration
    count or seed changes the digest; one that means to updates it and says
    why."""

    SPEC = Path(__file__).resolve().parents[1] / "specs" / "bit_grid.json"
    # sha256 over the results rows, minus elapsed_seconds, in file order
    DIGEST = "2cfd48501fd034d098b62e918fa8e14e0e1451e8a592758db8811ac39f9005d9"

    def test_grid_rows_up_to_50_bits(self, tmp_path):
        dataset = [sp for sp in generate_dataset(load_dataset_spec(self.SPEC)) if sp.n_bits <= 50]
        assert len(dataset) == 90
        path = tmp_path / "results.csv"
        write_results_csv(path, run_bench(dataset, BenchConfig(seed=0, workers=1)))
        digest = hashlib.sha256()
        with open(path, newline="") as f:
            for row in csv.DictReader(f):
                del row["elapsed_seconds"]
                digest.update(",".join(row.values()).encode() + b"\n")
        assert digest.hexdigest() == self.DIGEST


class TestRunAttemptStatuses:
    def test_round_cap_is_exhausted(self):
        # 56 bits: the default schedule gives up after 500 rounds, far inside the budget
        outcome = run_attempt("qs", 49188180397635527, 0, 60.0)
        assert outcome.status == "exhausted"
        assert outcome.factor is None
        assert outcome.iterations == 500
        assert (outcome.b_param, outcome.m_param) == (5000, 50000)

    def test_perfect_square_is_success(self):
        outcome = run_attempt("qs", 10201, 0, 5.0)
        assert outcome.status == "success"
        assert outcome.factor == 101

    @pytest.mark.parametrize(
        "error",
        [errors.NotComposite, errors.BudgetExceeded, errors.Exhausted],
        ids=lambda error: error.status,
    )
    def test_failure_is_its_status(self, monkeypatch, error):
        def fail(trace):
            def algorithm(n, settings, budget):
                raise error("no factor", trace)

            return algorithm

        monkeypatch.setattr(factorbench.bench, "pollard_factor", fail(RhoTrace(iterations=77)))
        qs_trace = QsTrace(rounds=3, final_b=30, final_m=300)
        monkeypatch.setattr(factorbench.bench, "qs_factor", fail(qs_trace))
        for algorithm, counters in (("pollard", (77, None, None)), ("qs", (3, 30, 300))):
            outcome = run_attempt(algorithm, 8051, 0, 5.0)
            assert (outcome.status, outcome.factor) == (error.status, None), algorithm
            assert (outcome.iterations, outcome.b_param, outcome.m_param) == counters

    def test_one_failure_class_per_status(self):
        classes = errors.FactorError.__subclasses__()
        failures = {cls.status for cls in classes}
        assert len(failures) == len(classes)
        assert failures | {"success"} == set(STATUSES)

    @pytest.mark.parametrize("bad", [8051, 7], ids=["n itself", "not a divisor"])
    def test_bad_factor_is_error(self, monkeypatch, bad):
        # 8051 = 83 * 97: a factor of n itself breaks the range rule, 7 does not divide it
        monkeypatch.setattr(
            factorbench.bench, "pollard_factor", lambda n, cfg, budget: (bad, RhoTrace(iterations=5))
        )
        monkeypatch.setattr(
            factorbench.bench, "qs_factor", lambda n, params, budget: (bad, QsTrace(rounds=3))
        )
        for algorithm, iterations in (("pollard", 5), ("qs", 3)):
            outcome = run_attempt(algorithm, 8051, 0, 5.0)
            assert (outcome.status, outcome.factor) == ("error", None), algorithm
            assert outcome.iterations == iterations

    @pytest.mark.parametrize("algorithm", ["pollard", "qs"])
    def test_n_wider_than_max_bits_rejected(self, algorithm):
        # 513 bits: an unpolled primality screen that wide overruns a small budget
        with pytest.raises(ValueError, match="512"):
            run_attempt(algorithm, (1 << 512) | 1, 0, 0.05)

    @given(
        n=kinds_of_n(),
        budget=st.floats(0.02, 0.1),
        b_bound=st.integers(2, 10**4),
        m_count=st.integers(1, 2000),
    )
    @example(n=1, budget=0.05, b_bound=10, m_count=100)
    @example(n=2, budget=0.05, b_bound=10, m_count=100)
    @example(n=3, budget=0.05, b_bound=10, m_count=100)
    @example(n=2**MAX_BITS + 1, budget=0.05, b_bound=10, m_count=100)
    @settings(max_examples=50, derandomize=True, deadline=None)
    def test_every_n_gets_a_status_or_a_value_error_at_once(self, n, budget, b_bound, m_count):
        # the one entry rule of both algorithms: n below 2 or wider than
        # MAX_BITS is a ValueError before any work; every other n, 2 and 3
        # included, ends in a status, `error` exactly for primes, within
        # the budget and its slack
        params = QsParams(b_bound=b_bound, m_count=m_count)
        for algorithm in ALGORITHMS:
            start = time.monotonic()
            if not 2 <= n < 2**MAX_BITS:
                with pytest.raises(ValueError):
                    run_attempt(algorithm, n, 0, budget, params)
                assert time.monotonic() - start < budget
                continue
            outcome = run_attempt(algorithm, n, 0, budget, params)
            assert outcome.status in STATUSES
            assert _outcome_violation(outcome) is None
            assert (outcome.status == "error") == is_probable_prime(n), (algorithm, outcome)
            assert outcome.elapsed_seconds <= budget + TIMEOUT_SLACK_SECONDS

    def test_unknown_algorithm_rejected(self):
        with pytest.raises(ValueError, match="unknown algorithm 'ecm'"):
            run_attempt("ecm", 15, 0, 1.0)

    def test_other_exceptions_propagate(self, monkeypatch):
        def broken(n, params, budget):
            raise ValueError("a bug in the sieve")

        monkeypatch.setattr(factorbench.bench, "qs_factor", broken)
        with pytest.raises(ValueError, match="a bug in the sieve"):
            run_attempt("qs", 8051, 0, 5.0)


class TestVerifyOutcomes:
    def test_clean_run(self):
        records = run_bench(small_dataset(2), BenchConfig(budget_seconds=30.0))
        assert verify_outcomes(records) == []

    def test_tampered_factor_flagged(self):
        records = run_bench(small_dataset(2), BenchConfig(budget_seconds=30.0))
        bad_outcome = dataclasses.replace(records[0].outcome, factor=records[0].outcome.factor + 1)
        tampered = [BenchRecord(records[0].semiprime, bad_outcome)] + records[1:]
        violations = verify_outcomes(tampered)
        assert len(violations) == 1
        assert "record 0" in violations[0]

    def test_timeout_records_never_flagged(self, expire_after):
        sp = random_semiprime(30, 30, 60, random.Random(45))
        expire_after(100)
        config = BenchConfig(
            budget_seconds=0.05, algorithms=("qs",), qs_params=QsParams(m_count=10**6)
        )
        records = run_bench([sp], config)
        assert records[0].outcome.status == "timeout"
        assert verify_outcomes(records) == []


class TestResultsCsv:
    def test_roundtrip(self, tmp_path):
        dataset = small_dataset(2)
        records = run_bench(dataset, BenchConfig(budget_seconds=30.0))
        path = tmp_path / "results.csv"
        write_results_csv(path, records)
        loaded = read_results_csv(path)
        assert len(loaded) == len(records)
        for orig, back in zip(records, loaded):
            assert back.semiprime == orig.semiprime
            assert back.outcome.algorithm == orig.outcome.algorithm
            assert back.outcome.status == orig.outcome.status
            assert back.outcome.factor == orig.outcome.factor
            assert back.outcome.seed == orig.outcome.seed
            assert abs(back.outcome.elapsed_seconds - orig.outcome.elapsed_seconds) < 1e-7

    def test_header_and_precision(self, tmp_path):
        records = run_bench(small_dataset(1), BenchConfig(budget_seconds=30.0))
        path = tmp_path / "results.csv"
        write_results_csv(path, records)
        lines = path.read_text().splitlines()
        assert lines[0] == (
            "n,p,q,p_bits,q_bits,n_bits,algorithm,status,factor,"
            "elapsed_seconds,b_param,m_param,iterations,seed"
        )
        elapsed_field = lines[1].split(",")[9]
        whole, frac = elapsed_field.split(".")
        assert len(frac) == 7

    def test_missing_values_empty(self, tmp_path):
        sp = random_semiprime(30, 30, 60, random.Random(46))
        # the first deadline poll comes after the first batch of 128 steps,
        # well past this budget
        records = run_bench([sp], BenchConfig(budget_seconds=1e-4, algorithms=("pollard",)))
        path = tmp_path / "results.csv"
        write_results_csv(path, records)
        row = path.read_text().splitlines()[1].split(",")
        assert row[8] == ""  # factor column empty on timeout
        assert read_results_csv(path)[0].outcome.factor is None

    def test_perfect_square_and_prime_rows_keep_their_bytes(self, tmp_path):
        square = run_attempt("qs", 10201, 0, 5.0)
        prime = run_attempt("qs", 613, 0, 5.0)
        counters = lambda o: (o.status, o.factor, o.iterations, o.b_param, o.m_param)
        assert counters(square) == ("success", 101, 0, None, None)
        assert counters(prime) == ("error", None, 0, None, None)
        # a prime has no dataset row of its own: its outcome rides on a semiprime's
        records = [
            BenchRecord(make_semiprime(101, 101), square),
            BenchRecord(make_semiprime(13, 47), prime),
        ]
        first, second = tmp_path / "first.csv", tmp_path / "second.csv"
        write_results_csv(first, records)
        write_results_csv(second, read_results_csv(first))
        assert second.read_bytes() == first.read_bytes()
        rows = [line.split(",") for line in first.read_text().splitlines()[1:]]
        # every column after the dataset's but elapsed_seconds
        assert [row[6:9] + row[10:] for row in rows] == [
            ["qs", "success", "101", "", "", "0", "0"],
            ["qs", "error", "", "", "", "0", "0"],
        ]

    def test_fixture_roundtrip_byte_identical(self, tmp_path):
        path = tmp_path / "results.csv"
        write_results_csv(path, read_results_csv(FIXTURE))
        assert path.read_bytes() == FIXTURE.read_bytes()

    def test_each_semiprime_checked_once(self, monkeypatch):
        # the fixture has a pollard and a qs row for each semiprime
        calls = []
        real = factorbench.primegen.is_probable_prime
        monkeypatch.setattr(
            factorbench.primegen, "is_probable_prime", lambda n: calls.append(n) or real(n)
        )
        records = read_results_csv(FIXTURE)
        semiprimes = {r.semiprime for r in records}
        assert (len(records), len(semiprimes)) == (24, 12)
        assert sorted(calls) == sorted(n for sp in semiprimes for n in (sp.p, sp.q))

    def test_repeated_bad_semiprime_names_its_first_line(self, tmp_path):
        # p = 21 = 3 * 7, in a pollard and a qs row after a good row
        bad = "420987,21,20047,5,15,19,{},success,21,0.1830000,,,6,1"
        path = tmp_path / "results.csv"
        lines = [",".join(RESULTS_CSV_HEADER), GOOD_ROW, bad.format("pollard"), bad.format("qs")]
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match="line 3: p = 21 is not prime"):
            read_results_csv(path)

    @pytest.mark.parametrize(
        "row, message",
        [
            (GOOD_ROW.rsplit(",", 1)[0], "line 2: expected 14 fields"),
            (GOOD_ROW + ",0", "line 2: expected 14 fields"),
            (GOOD_ROW.replace(",6,", ",6x,"), "line 2: invalid literal"),
            (GOOD_ROW.replace(",qs,", ",nosuch,"), "line 2: unknown algorithm 'nosuch'"),
            (GOOD_ROW.replace(",success,", ",banana,"), "line 2: unknown status 'banana'"),
            # p = 21 = 3 * 7
            (
                "420987,21,20047,5,15,19,qs,success,21,0.1830000,60,600,6,1",
                "line 2: p = 21 is not prime",
            ),
            pytest.param(
                GOOD_ROW.replace(",success,", "," + "x" * (csv.field_size_limit() + 1) + ","),
                "line 2: field larger than field limit",
                id="oversized-field",
            ),
            pytest.param(
                GOOD_ROW.replace(",0.1830000,", ",nan,"),
                "line 2: elapsed_seconds 'nan' is not finite",
                id="nan-elapsed",
            ),
            pytest.param(
                GOOD_ROW.replace(",0.1830000,", ",inf,"),
                "line 2: elapsed_seconds 'inf' is not finite",
                id="infinite-elapsed",
            ),
            pytest.param(
                GOOD_ROW.replace(",0.1830000,", ",-1.0000000,"),
                "line 2: elapsed_seconds '-1.0000000' is not finite and >= 0",
                id="negative-elapsed",
            ),
            pytest.param(
                GOOD_ROW.replace(",20047,0.18", ",7,0.18"),
                "line 2: 7 does not divide 581363",
                id="factor-not-dividing",
            ),
            pytest.param(
                GOOD_ROW.replace(",20047,0.18", ",581363,0.18"),
                "line 2: factor 581363 out of range for 581363",
                id="factor-out-of-range",
            ),
            pytest.param(
                GOOD_ROW.replace(",20047,0.18", ",,0.18"),
                "line 2: success without a factor",
                id="success-without-factor",
            ),
            pytest.param(
                GOOD_ROW.replace(",success,", ",timeout,"),
                "line 2: status timeout carries a factor",
                id="timeout-with-factor",
            ),
            pytest.param(
                "581363,29,20047,5,15,20,pollard,success,29,0.0010000,,,-7,1",
                "line 2: iterations -7 is below 0",
                id="negative-iterations",
            ),
            pytest.param(
                "581363,29,20047,5,15,20,qs,success,20047,0.1830000,-4,-9,-2,1",
                "line 2: iterations -2 is below 0",
                id="negative-qs-counters",
            ),
            pytest.param(
                "581363,29,20047,5,15,20,qs,success,20047,0.1830000,-4,-9,2,1",
                "line 2: b_param -4 is below 2 or m_param -9 is below 1",
                id="negative-sieve-settings",
            ),
            pytest.param(
                GOOD_ROW.replace(",60,600,", ",1,600,"),
                "line 2: b_param 1 is below 2 or m_param 600 is below 1",
                id="bound-below-two",
            ),
            pytest.param(
                GOOD_ROW.replace(",60,600,", ",60,0,"),
                "line 2: b_param 60 is below 2 or m_param 0 is below 1",
                id="window-below-one",
            ),
            pytest.param(
                "581363,29,20047,5,15,20,pollard,timeout,,0.0010000,12,13,0,1",
                "line 2: a pollard row carries no b_param or m_param",
                id="pollard-with-sieve-settings",
            ),
            pytest.param(
                GOOD_ROW.replace(",60,600,", ",60,,"),
                "line 2: a qs row carries both b_param and m_param or neither",
                id="qs-bound-without-window",
            ),
            pytest.param(
                GOOD_ROW.replace(",60,600,", ",,600,"),
                "line 2: a qs row carries both b_param and m_param or neither",
                id="qs-window-without-bound",
            ),
        ],
    )
    def test_malformed_row_names_its_line(self, tmp_path, row, message):
        path = tmp_path / "results.csv"
        path.write_text(",".join(RESULTS_CSV_HEADER) + "\n" + row + "\n")
        with pytest.raises(ValueError, match=message):
            read_results_csv(path)


class TestBenchConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            BenchConfig(budget_seconds=0)
        with pytest.raises(ValueError):
            BenchConfig(workers=0)
        with pytest.raises(ValueError):
            BenchConfig(algorithms=("bogus",))
        with pytest.raises(ValueError):
            BenchConfig(algorithms=())

    def test_nan_budget_rejected(self):
        with pytest.raises(ValueError, match="budget_seconds must be positive"):
            BenchConfig(budget_seconds=float("nan"))
