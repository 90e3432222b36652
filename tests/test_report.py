import hashlib
import itertools
import math
from decimal import Decimal, localcontext
from pathlib import Path

import pytest

from factorbench.bench import BenchRecord, FactorOutcome, read_results_csv
from factorbench.primegen import make_semiprime
from factorbench.report import (
    COMPLEXITY_DEFAULT_BITS,
    TABLE_NAMES,
    ComplexityRow,
    complexity_models,
    avg_runtime_by_bitdiff,
    failure_counts,
    head_to_head,
    points_csv,
    render_report,
    success_rate_by_bitdiff,
)

PRIMES_BY_BITS = {
    4: [11, 13],
    5: [17, 19, 23, 29, 31],
    6: [37, 41, 43, 47, 53, 59, 61],
    7: [67, 71, 73, 79, 83, 89, 97, 101],
    8: [131, 137, 139, 149, 151, 157],
}


def record(p, q, algorithm="qs", status="success", elapsed=0.1, factor="auto"):
    sp = make_semiprime(p, q)
    if factor == "auto":
        factor = sp.p if status == "success" else None
    outcome = FactorOutcome(
        algorithm=algorithm,
        n=sp.n,
        status=status,
        factor=factor,
        elapsed_seconds=elapsed,
        b_param=None,
        m_param=None,
        iterations=1,
        seed=0,
    )
    return BenchRecord(semiprime=sp, outcome=outcome)


def decimal_models(bits):
    """Oracle: the cost formulas at 50 decimal digits."""
    with localcontext() as ctx:
        ctx.prec = 50
        ln_n = bits * Decimal(2).ln()
        pollard = (ln_n / 4).exp()  # 2**(bits/4)
        qs = (Decimal("1.125") * ln_n * ln_n.ln()).sqrt().exp()
    return float(pollard), float(qs)


class TestGroupStats:
    def test_failure_counts_arithmetic(self):
        records = [
            record(17, 1019, status="timeout"),
            record(19, 1021, status="timeout"),
            record(23, 1013, status="error"),
            record(29, 1009, status="success"),
        ]
        stats = failure_counts(records, "qs")
        assert len(stats) == 1
        s = stats[0]
        assert s.key == (15, 5, 10)
        assert s.total == 4 and s.failures == 3 and s.successes == 1
        assert s.success_fraction == 0.25

    def test_all_success(self):
        records = [record(17, 19), record(23, 29)]
        for s in failure_counts(records, "qs"):
            assert s.failures == 0

    def test_five_groups_for_50_bit_grid(self):
        pairs = [(5, 45), (10, 40), (15, 35), (20, 30), (25, 25)]
        records = []
        import random

        from factorbench.primegen import random_semiprime

        rng = random.Random(1)
        for pb, qb in pairs:
            sp = random_semiprime(pb, qb, 50, rng)
            records.append(record(sp.p, sp.q))
        stats = failure_counts(records, "qs")
        assert len(stats) == 5
        assert [s.key for s in stats] == [(50, pb, qb) for pb, qb in pairs]

    def test_success_rate_fractions(self):
        records = [
            record(17, 31, status="success"),
            record(19, 29, status="success"),
            record(131, 151, status="timeout"),
            record(137, 149, status="timeout"),
            record(139, 157, status="timeout"),
            record(131, 157, status="timeout"),
        ]
        stats = success_rate_by_bitdiff(records, "qs")
        by_key = {s.key: s for s in stats}
        assert by_key[(10, 0)].success_fraction == 1.0
        assert by_key[(15, 0)].success_fraction == 0.0

    def test_avg_runtime_means(self):
        records = [
            record(17, 1019, elapsed=0.1),
            record(19, 1021, elapsed=0.3),
            record(23, 1013, status="timeout", elapsed=180.0),
        ]
        stats = avg_runtime_by_bitdiff(records, "qs")
        assert len(stats) == 1
        assert stats[0].mean_elapsed_success == pytest.approx(0.2)

    def test_zero_success_group_mean_absent(self):
        records = [record(17, 1019, status="timeout")]
        stats = avg_runtime_by_bitdiff(records, "qs")
        assert stats[0].mean_elapsed_success is None
        assert stats[0].successes == 0

    def test_recount_oracle(self):
        import random

        rng = random.Random(3)
        records = []
        for _ in range(200):
            p = rng.choice(PRIMES_BY_BITS[5])
            q = rng.choice(PRIMES_BY_BITS[8])
            status = rng.choice(["success", "timeout", "error"])
            records.append(record(p, q, status=status, elapsed=rng.random()))
        for stats_fn in (failure_counts, success_rate_by_bitdiff):
            for s in stats_fn(records, "qs"):
                assert s.successes + s.failures == s.total
                assert 0.0 <= s.success_fraction <= 1.0
                assert s.success_fraction == s.successes / s.total


class TestHeadToHead:
    def test_qs_strictly_faster_flagged(self):
        records = [
            record(4441, 394360971937, algorithm="pollard", elapsed=0.0147488),
            record(4441, 394360971937, algorithm="qs", elapsed=0.0138340),
        ]
        h2h = head_to_head(records)
        assert len(h2h.rows) == 1 and h2h.rows[0].qs_faster

    def test_equal_times_not_flagged(self):
        records = [
            record(83, 97, algorithm="pollard", elapsed=0.5),
            record(83, 97, algorithm="qs", elapsed=0.5),
        ]
        assert not head_to_head(records).rows[0].qs_faster

    def test_pollard_timeout_qs_success_flagged(self):
        records = [
            record(83, 97, algorithm="pollard", status="timeout", elapsed=180.0),
            record(83, 97, algorithm="qs", elapsed=1.0),
        ]
        assert head_to_head(records).rows[0].qs_faster

    def test_unmatched_excluded_and_counted(self):
        records = [
            record(83, 97, algorithm="pollard"),
            record(101, 103, algorithm="pollard"),
            record(101, 103, algorithm="qs"),
        ]
        h2h = head_to_head(records)
        assert h2h.unmatched == 1
        assert len(h2h.rows) == 1

    def test_repeated_products_pair_in_record_order(self):
        # a dataset that repeats n = 21 four times gives four records a side;
        # the i-th pollard record pairs with the i-th qs record
        pollard_times, qs_times = (0.1, 0.2, 0.3, 0.4), (0.4, 0.3, 0.2, 0.1)
        records = []
        for po_time, qs_time in zip(pollard_times, qs_times):
            records.append(record(3, 7, algorithm="pollard", elapsed=po_time))
            records.append(record(3, 7, algorithm="qs", elapsed=qs_time))
        records.append(record(3, 7, algorithm="pollard", elapsed=0.5))
        records += [record(83, 97, algorithm="qs"), record(83, 97, algorithm="pollard")]
        h2h = head_to_head(records)
        pairs = [
            (r.pollard.semiprime.n, r.pollard.outcome.elapsed_seconds, r.qs.outcome.elapsed_seconds)
            for r in h2h.rows
        ]
        assert pairs == [
            (21, 0.1, 0.4), (21, 0.2, 0.3), (21, 0.3, 0.2), (21, 0.4, 0.1), (8051, 0.1, 0.1)
        ]
        assert [r.qs_faster for r in h2h.rows] == [False, False, True, True, False]
        assert h2h.unmatched == 1
        assert "2 of 5 paired products; 1 unmatched excluded." in render_report(
            records, tables=("head-to-head",)
        )


class TestComplexityModels:
    def test_pollard_at_40_bits(self):
        row = complexity_models([40])[0]
        assert row.pollard_cost == 1024.0  # 2**(40/4)

    def test_qs_at_64_bits_frozen(self):
        # frozen from the 50-digit oracle
        row = complexity_models([64])[0]
        assert row.qs_cost == pytest.approx(943485.0883921132, rel=1e-12)

    def test_matches_high_precision_oracle(self):
        for bits in range(8, 161, 4):
            row = complexity_models([bits])[0]
            pollard_ref, qs_ref = decimal_models(bits)
            assert row.pollard_cost == pytest.approx(pollard_ref, rel=1e-9)
            assert row.qs_cost == pytest.approx(qs_ref, rel=1e-9)
            assert row.ratio == pytest.approx(pollard_ref / qs_ref, rel=1e-9)

    def test_ratio_increasing_40_to_120(self):
        rows = complexity_models(range(40, 121))
        ratios = [r.ratio for r in rows]
        assert all(a < b for a, b in zip(ratios, ratios[1:]))

    def test_minimum_bits_enforced(self):
        with pytest.raises(ValueError):
            complexity_models([7])


class TestRenderReport:
    def test_deterministic(self):
        records = [record(17, 1019), record(19, 1021, status="timeout")]
        assert render_report(records) == render_report(records)

    def test_empty_records(self):
        doc = render_report([])
        assert "no data" in doc
        assert doc.startswith("# Factorization benchmark report")

    def test_unknown_table_rejected(self):
        with pytest.raises(ValueError):
            render_report([], tables=("bogus",))

    def test_table_selection(self):
        records = [record(17, 1019)]
        doc = render_report(records, tables=("avg-runtime",))
        assert "Mean runtime" in doc
        assert "Failure counts" not in doc
        assert "Predicted cost" not in doc

    def test_grid_design_row_count(self):
        import random

        from factorbench.primegen import random_semiprime

        rng = random.Random(5)
        records = []
        for nb in (40, 50, 60):
            for pb in range(5, nb // 2 + 1, 5):
                sp = random_semiprime(pb, nb - pb, nb, rng)
                records.append(record(sp.p, sp.q))
        doc = render_report(records, tables=("avg-runtime",))
        qs_section = doc.split("### qs")[1]
        data_rows = [l for l in qs_section.splitlines() if l.startswith("| ") and "|---" not in l]
        assert len(data_rows) - 1 == 15  # header row plus the fifteen groups

    def test_bitdiff_ordering(self):
        records = [
            record(17, 8191, status="success"),  # 40-bit? no: 5+13 bits
            record(127, 8191),
            record(17, 19),
        ]
        doc = render_report(records, tables=("success-by-bitdiff",))
        qs_lines = [
            l
            for l in doc.split("### qs")[1].splitlines()
            if l.startswith("| ") and "|---" not in l and "product bits" not in l
        ]
        keys = []
        for line in qs_lines:
            cells = [c.strip() for c in line.split("|")[1:-1]]
            keys.append((int(cells[0]), int(cells[1])))
        assert keys == sorted(keys, key=lambda k: (k[0], -k[1]))


class TestRenderReportGolden:
    """The bytes of every report the fixture and empty records give, pinned
    so that a rewrite of the renderer must keep each one."""

    # the tables the digests cover; a table added later leaves them as they are
    PINNED_TABLES = (
        "failure-counts",
        "success-by-bitdiff",
        "avg-runtime",
        "head-to-head",
        "complexity",
    )
    # sha256 over the 32 subsets of PINNED_TABLES, smallest first and in
    # itertools.combinations order, each document followed by a NUL byte
    DIGESTS = {
        "fixture": "df05a174523baad491e78d868e495d4db2accfc3c878d84d6ec146919a13b63c",
        "empty": "a644edbaf53e6c09cb7c98fddb4cb428d0a534b3abc93d6eedda095f24ec4005",
    }

    @pytest.mark.parametrize("source", sorted(DIGESTS))
    def test_every_table_subset_pinned(self, source):
        records = []
        if source == "fixture":
            records = read_results_csv(Path(__file__).parent / "data" / "results_fixture.csv")
        assert TABLE_NAMES[: len(self.PINNED_TABLES)] == self.PINNED_TABLES
        subsets = [
            subset
            for k in range(len(self.PINNED_TABLES) + 1)
            for subset in itertools.combinations(self.PINNED_TABLES, k)
        ]
        digest = hashlib.sha256()
        for subset in subsets:
            digest.update(render_report(records, subset).encode("utf-8") + b"\0")
        assert digest.hexdigest() == self.DIGESTS[source]


class TestPointsCsv:
    def test_format(self):
        out = points_csv([record(17, 1019, elapsed=0.25)])
        lines = out.splitlines()
        assert lines[0] == "n_bits,algorithm,elapsed_seconds,status"
        assert lines[1] == "15,qs,0.2500000,success"
