"""Acceptance suite: one test per exit criterion, each printing a pass line.

Run with `pytest tests/test_acceptance.py -v` (add -s to see the PASS lines
inline). The trend criterion benches 450 semiprimes at a 180 s budget and
takes the largest share of the suite's runtime: 2.5-4.5 s on a 2-core VM
with Python 3.11.7, where the whole test suite takes 16-23 s.
"""

import itertools
import random
import time
from pathlib import Path

import pytest

from factorbench.arith import is_probable_prime
from factorbench.bench import (
    BenchConfig,
    TIMEOUT_SLACK_SECONDS,
    run_bench,
    verify_outcomes,
)
from factorbench.cli import main as cli_main
from factorbench.gf2 import BitMatrix, eliminate, row_xor_check
from factorbench.pollard import RhoConfig, pollard_factor
from factorbench.primegen import (
    DatasetSpec,
    FixedGroup,
    generate_dataset,
    random_semiprime,
)
from factorbench.report import avg_runtime_by_bitdiff, complexity_models
from factorbench.sieve import QsParams, build_factor_base, collect_relations, qs_factor

DATA_DIR = Path(__file__).parent / "data"


def passed(criterion: str):
    print(f"ACCEPTANCE {criterion}: PASS")


def trial_division_pair(n):
    d = 2
    while d * d <= n:
        if n % d == 0:
            return {d, n // d}
        d += 1
    return {n}


def test_criterion_01_worked_example_fidelity():
    """N=400289 with bound 7: relation (633, 400, (4,0,2,0)), factors {613, 653}."""
    start = time.monotonic()
    fb = build_factor_base(7)
    relations = collect_relations(400289, fb, 1)
    assert len(relations) == 1
    rel = relations[0]
    assert rel.b == 633
    assert rel.a == 400
    assert rel.exponents == (4, 0, 2, 0)
    assert rel.parity == (0, 0, 0, 0)
    g, trace = qs_factor(400289, QsParams(b_bound=7, m_count=1))
    assert {g, 400289 // g} == {613, 653}
    assert 613 * 653 == 400289
    assert time.monotonic() - start < 1.0
    passed("criterion-1 worked-example-fidelity")


def test_criterion_02_pollard_cited_inputs():
    """Both cited products factor into verified prime pairs within 10 s each."""
    for n in (11752700814259, 49808531654765413631):
        start = time.monotonic()
        d, _ = pollard_factor(n, RhoConfig(seed=0), budget_seconds=10.0)
        elapsed = time.monotonic() - start
        assert elapsed < 10.0
        assert 1 < d < n and n % d == 0
        assert is_probable_prime(d)
        assert is_probable_prime(n // d)
    passed("criterion-2 pollard-cited-inputs")


def test_criterion_03_oracle_equivalence_300():
    """Trial division, rho, and the sieve agree on 300 seeded semiprimes."""
    start = time.monotonic()
    rng = random.Random(300)
    for i in range(300):
        p_bits = rng.randrange(8, 17)
        q_bits = rng.randrange(8, 17)
        sp = random_semiprime(p_bits, q_bits, p_bits + q_bits, rng)
        expected = {sp.p, sp.q}
        assert trial_division_pair(sp.n) == expected
        d_rho, _ = pollard_factor(sp.n, RhoConfig(seed=i), budget_seconds=60.0)
        assert {d_rho, sp.n // d_rho} == expected
        d_qs, _ = qs_factor(sp.n, budget_seconds=60.0)
        assert {d_qs, sp.n // d_qs} == expected
    assert time.monotonic() - start < 300.0
    passed("criterion-3 oracle-equivalence-300")


def test_criterion_04_gf2_soundness_completeness():
    """1000 random small matrices: sound dependencies, none missed."""
    rng = random.Random(4)
    for _ in range(1000):
        n_rows = rng.randrange(1, 13)
        n_cols = rng.randrange(1, 9)
        bits = [rng.getrandbits(n_cols) for _ in range(n_rows)]
        m = BitMatrix(n_cols, bits)
        deps = eliminate(m)
        for dep in deps:
            assert row_xor_check(m, dep)
        oracle_found = False
        for size in range(1, n_rows + 1):
            for combo in itertools.combinations(range(n_rows), size):
                acc = 0
                for i in combo:
                    acc ^= bits[i]
                if acc == 0:
                    oracle_found = True
                    break
            if oracle_found:
                break
        assert (len(deps) > 0) == oracle_found
    passed("criterion-4 gf2-soundness-completeness")


def test_criterion_05_timeout_protocol():
    """0.01 s budget on a 60-bit semiprime: deterministic timeout within slack."""
    sp = random_semiprime(30, 30, 60, random.Random(5))
    cfg = BenchConfig(budget_seconds=0.01, algorithms=("qs",), seed=0)
    first = run_bench([sp], cfg)
    second = run_bench([sp], cfg)
    for records in (first, second):
        assert len(records) == 1
        outcome = records[0].outcome
        assert outcome.status == "timeout"
        assert outcome.factor is None
        assert outcome.elapsed_seconds <= 0.01 + TIMEOUT_SLACK_SECONDS
    assert [r.outcome.status for r in first] == [r.outcome.status for r in second]
    passed("criterion-5 timeout-protocol")


def test_criterion_06_dataset_bit_exactness():
    """15-group grid spec, 100 per group: all 1500 rows bit-exact."""
    groups = tuple(
        FixedGroup(100, pb, nb - pb, nb)
        for nb in (40, 50, 60)
        for pb in range(5, nb // 2 + 1, 5)
    )
    assert len(groups) == 15
    rows = generate_dataset(DatasetSpec(seed=6, groups=groups))
    assert len(rows) == 1500
    exact = 0
    for row, group in zip(rows, (g for g in groups for _ in range(g.count))):
        assert row.p * row.q == row.n
        if (
            row.n.bit_length() == group.n_bits
            and row.p.bit_length() == min(group.p_bits, group.q_bits)
            and row.q.bit_length() == max(group.p_bits, group.q_bits)
        ):
            exact += 1
    assert exact == 1500
    passed("criterion-6 dataset-bit-exactness")


def test_criterion_07_trend_reproduction():
    """Desk-scale orderings: rho beats the sieve per group; the 50-bit sieve
    mean is larger at bit difference 40 than at 0; the predicted cost ratio
    rises over 40..120 bits."""
    groups = tuple(
        FixedGroup(50, pb, nb - pb, nb)
        for nb in (40, 50)
        for pb in range(5, nb // 2 + 1, 5)
    )
    dataset = generate_dataset(DatasetSpec(seed=0, groups=groups))
    assert len(dataset) == 450
    # interleave the groups so slow drift in machine speed over the run
    # lands evenly on every group instead of biasing the later ones
    batches = [dataset[i : i + 50] for i in range(0, len(dataset), 50)]
    dataset = [sp for wave in zip(*batches) for sp in wave]
    cfg = BenchConfig(budget_seconds=180.0, seed=0, workers=1)
    records = run_bench(dataset, cfg)
    assert verify_outcomes(records) == []

    rho_means = {s.key: s.mean_elapsed_success for s in avg_runtime_by_bitdiff(records, "pollard")}
    qs_means = {s.key: s.mean_elapsed_success for s in avg_runtime_by_bitdiff(records, "qs")}
    assert set(rho_means) == set(qs_means)
    for key in sorted(qs_means):
        assert rho_means[key] is not None and qs_means[key] is not None, key
        assert rho_means[key] < qs_means[key], (key, rho_means[key], qs_means[key])

    assert qs_means[(50, 40)] > qs_means[(50, 0)], (qs_means[(50, 40)], qs_means[(50, 0)])

    ratios = [row.ratio for row in complexity_models(range(40, 121))]
    assert all(a < b for a, b in zip(ratios, ratios[1:]))
    passed("criterion-7 trend-reproduction")


def test_criterion_08_report_determinism(tmp_path):
    """report over the fixture CSV is byte-identical across runs."""
    fixture = DATA_DIR / "results_fixture.csv"
    out_a = tmp_path / "a.md"
    out_b = tmp_path / "b.md"
    points_a = tmp_path / "a_points.csv"
    points_b = tmp_path / "b_points.csv"
    for out, pts in ((out_a, points_a), (out_b, points_b)):
        code = cli_main(
            ["report", "--results", str(fixture), "--out", str(out), "--points-csv", str(pts)]
        )
        assert code == 0
    assert out_a.read_bytes() == out_b.read_bytes()
    assert points_a.read_bytes() == points_b.read_bytes()
    assert len(out_a.read_bytes()) > 0
    passed("criterion-8 report-determinism")
