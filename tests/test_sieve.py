import math
import random
import time

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from factorbench.arith import is_probable_prime
from factorbench.errors import BudgetExceeded, PerfectSquare, RoundsExhausted
from factorbench.gf2 import BitMatrix, Dependency, eliminate
from factorbench.pollard import RhoConfig, pollard_factor
from factorbench.primegen import random_semiprime
from factorbench import sieve
from factorbench.sieve import (
    FactorBase,
    QsParams,
    Relation,
    _RelationScanner,
    build_factor_base,
    collect_relations,
    extract_factor,
    qs_factor,
    smooth_decompose,
)


def reconstruct(exponents, fb):
    """Oracle: multiply the base back together."""
    value = 1
    for p, e in zip(fb.primes, exponents):
        value *= p**e
    return value


def reference_qs(n, params):
    """Oracle: the retry loop with a fresh scan and a fresh elimination of
    every relation each round, trying every dependency. Returns (factor,
    rounds, relations found in the last round)."""
    b_bound, m_count = params.b_bound, params.m_count
    for round_no in range(1, params.max_rounds + 1):
        fb = build_factor_base(b_bound)
        if round_no == 1:
            for p in fb.primes:
                if p < n and n % p == 0:
                    return p, round_no, 0
        rels = collect_relations(n, fb, m_count)
        masks = [sum(bit << j for j, bit in enumerate(rel.parity)) for rel in rels]
        for dep in eliminate(BitMatrix(len(fb.primes), masks)):
            g = extract_factor(n, fb, rels, dep)
            if g is not None:
                return g, round_no, len(rels)
        b_bound += params.b_increment
        m_count += params.m_increment
    return None, params.max_rounds, len(rels)


def trial_division_pair(n):
    """Oracle: factor pair via smallest-divisor scan."""
    d = 2
    while d * d <= n:
        if n % d == 0:
            return {d, n // d}
        d += 1
    return {n}


class TestBuildFactorBase:
    def test_matches_trial_division_as_the_table_grows(self, monkeypatch):
        monkeypatch.setattr(sieve, "_prime_table", (1, ()))
        for bound in (2, 3, 2, 40, 41, 1500, 30, 1501, 5000, 4096):
            expected = tuple(p for p in range(2, bound + 1) if trial_division_pair(p) == {p})
            assert build_factor_base(bound) == FactorBase(bound, expected)

    def test_examples(self):
        assert build_factor_base(7).primes == (2, 3, 5, 7)
        assert build_factor_base(2).primes == (2,)
        assert build_factor_base(30).primes == (2, 3, 5, 7, 11, 13, 17, 19, 23, 29)

    def test_bound_validated(self):
        with pytest.raises(ValueError):
            build_factor_base(1)


class TestSmoothDecompose:
    def test_worked_example_vector(self):
        fb = build_factor_base(7)
        assert smooth_decompose(400, fb) == [4, 0, 2, 0]

    def test_one(self):
        fb = build_factor_base(13)
        assert smooth_decompose(1, fb) == [0] * 6

    def test_not_smooth(self):
        fb = build_factor_base(5)
        assert smooth_decompose(77, fb) is None  # 7 * 11

    def test_below_one_rejected(self):
        with pytest.raises(ValueError):
            smooth_decompose(0, build_factor_base(5))

    @given(st.integers(1, 10**7), st.integers(2, 60))
    @settings(max_examples=300)
    def test_reconstruction(self, a, bound):
        fb = build_factor_base(bound)
        exps = smooth_decompose(a, fb)
        if exps is not None:
            assert reconstruct(exps, fb) == a

    def test_residual_tracking(self):
        fb = build_factor_base(10)
        # 2**3 * 3 * 53: 53 survives, so not smooth
        assert smooth_decompose(8 * 3 * 53, fb) is None
        # in-base prime residual found via the shortcut
        assert smooth_decompose(4 * 7, fb) == [2, 0, 0, 1]


class TestCollectRelations:
    def test_worked_example_first_relation(self):
        fb = build_factor_base(7)
        rels = collect_relations(400289, fb, 1)
        assert len(rels) == 1
        rel = rels[0]
        assert rel.b == 633
        assert rel.a == 400
        assert rel.exponents == (4, 0, 2, 0)
        assert rel.parity == (0, 0, 0, 0)
        assert rel.b * rel.b % 400289 == rel.a

    def test_empty_window(self):
        assert collect_relations(10403, build_factor_base(30), 0) == []

    def test_relations_verified_by_remultiplication(self):
        n = 10403  # 101 * 103
        fb = build_factor_base(30)
        rels = collect_relations(n, fb, 200)
        assert rels
        for rel in rels:
            assert rel.b * rel.b % n == rel.a
            assert reconstruct(rel.exponents, fb) == rel.a
            assert rel.parity == tuple(e & 1 for e in rel.exponents)

    def test_scan_order_preserved(self):
        rels = collect_relations(10403, build_factor_base(30), 200)
        bs = [r.b for r in rels]
        assert bs == sorted(bs)

    def test_deadline(self):
        fb = build_factor_base(1000)
        with pytest.raises(BudgetExceeded):
            collect_relations(2**59 + 3**35, fb, 10**9, deadline=time.monotonic() + 0.02)


class TestExtractFactor:
    def test_worked_example_zero_parity(self):
        n = 400289
        fb = build_factor_base(7)
        rels = collect_relations(n, fb, 1)
        g = extract_factor(n, fb, rels, Dependency(frozenset({0})))
        assert g == 613
        assert 613 * 653 == n

    def test_parity_violation_rejected(self):
        fb = build_factor_base(7)
        rel = Relation(b=3, a=2, exponents=(1, 0, 0, 0), parity=(1, 0, 0, 0))
        with pytest.raises(ValueError):
            extract_factor(35, fb, [rel], Dependency(frozenset({0})))

    def test_index_out_of_range(self):
        fb = build_factor_base(7)
        with pytest.raises(IndexError):
            extract_factor(35, fb, [], Dependency(frozenset({0})))

    def test_trivial_when_x_equals_y(self):
        # b*b = b*b (mod n) with a = b*b itself: x = b, y = b, gcd = n
        n = 61 * 67
        fb = build_factor_base(7)
        b = 4
        a = b * b % n
        exps = smooth_decompose(a, fb)
        rel = Relation(b=b, a=a, exponents=tuple(exps), parity=tuple(e & 1 for e in exps))
        assert extract_factor(n, fb, [rel], Dependency(frozenset({0}))) is None


class TestQsFactor:
    def test_worked_example_end_to_end(self):
        g, trace = qs_factor(400289, QsParams(b_bound=7, m_count=1))
        assert g == 613
        assert trace.rounds == 1
        assert trace.relations_found == 1
        assert not trace.via_small_factor

    def test_10403(self):
        g, _ = qs_factor(10403, QsParams(b_bound=30, m_count=300))
        assert g in {101, 103}
        assert trial_division_pair(10403) == {101, 103}

    def test_small_factor_screen(self):
        g, trace = qs_factor(35, QsParams())
        assert g == 5
        assert trace.via_small_factor
        assert trace.rounds == 1

    def test_perfect_square(self):
        with pytest.raises(PerfectSquare) as exc_info:
            qs_factor(101 * 101, QsParams())
        assert exc_info.value.root == 101

    def test_small_n_rejected(self):
        with pytest.raises(ValueError):
            qs_factor(3, QsParams())

    def test_budget_exceeded_carries_trace(self):
        sp = random_semiprime(30, 30, 60, random.Random(17))
        with pytest.raises(BudgetExceeded) as exc_info:
            qs_factor(sp.n, QsParams(), budget_seconds=0.02)
        assert exc_info.value.trace is not None
        assert exc_info.value.trace.rounds >= 1

    def test_rounds_exhausted(self):
        sp = random_semiprime(20, 20, 40, random.Random(18))
        with pytest.raises(RoundsExhausted):
            qs_factor(sp.n, QsParams(b_bound=2, m_count=1, b_increment=1, m_increment=1, max_rounds=2))

    def test_factor_divides(self):
        rng = random.Random(21)
        for _ in range(30):
            sp = random_semiprime(11, 13, 24, rng)
            g, _ = qs_factor(sp.n, budget_seconds=60.0)
            assert 1 < g < sp.n and sp.n % g == 0

    def test_agreement_with_pollard_100(self):
        rng = random.Random(100)
        for _ in range(100):
            p_bits = rng.randrange(10, 15)
            q_bits = rng.randrange(10, 15)
            sp = random_semiprime(p_bits, q_bits, p_bits + q_bits, rng)
            g_qs, _ = qs_factor(sp.n, budget_seconds=60.0)
            g_rho, _ = pollard_factor(sp.n, RhoConfig(seed=4), budget_seconds=60.0)
            assert {g_qs, sp.n // g_qs} == {g_rho, sp.n // g_rho} == {sp.p, sp.q}

    def test_trace_monotone_growth(self):
        # force several rounds with a tiny starting window
        sp = random_semiprime(14, 14, 28, random.Random(6))
        params = QsParams(b_bound=10, m_count=1, b_increment=10, m_increment=100)
        g, trace = qs_factor(sp.n, params, budget_seconds=60.0)
        assert sp.n % g == 0
        assert trace.final_b == params.b_bound + (trace.rounds - 1) * params.b_increment
        assert trace.final_m == params.m_count + (trace.rounds - 1) * params.m_increment

    def test_deterministic(self):
        sp = random_semiprime(13, 15, 28, random.Random(19))
        a = qs_factor(sp.n, budget_seconds=60.0)
        b = qs_factor(sp.n, budget_seconds=60.0)
        assert a[0] == b[0]
        assert a[1].rounds == b[1].rounds
        assert a[1].relations_found == b[1].relations_found


class TestQsFactorMatchesReference:
    """Reducing only each round's new relations into one basis, and trying
    only the dependencies they complete, must take as many rounds as
    re-eliminating every relation every round."""

    def test_rounds_and_relations(self):
        rng = random.Random(2024)
        params = QsParams()
        for n_bits in [24, 26, 28, 30, 32, 34, 36, 38, 40] * 2 + [25, 33]:
            p_bits = rng.randrange(5, n_bits // 2 + 1)
            sp = random_semiprime(p_bits, n_bits - p_bits, n_bits, rng)
            g, trace = qs_factor(sp.n, params)
            ref_g, ref_rounds, ref_relations = reference_qs(sp.n, params)
            assert ref_g is not None
            assert 1 < g < sp.n and sp.n % g == 0
            assert trace.rounds == ref_rounds, sp
            assert trace.relations_found == ref_relations, sp


class TestScannerMatchesReference:
    """The incremental scanner must reproduce fresh rescans exactly."""

    def check(self, n, schedule):
        scanner = _RelationScanner(n)
        for bound, m_count in schedule:
            fb = build_factor_base(bound)
            scanner.advance(fb.primes, m_count, None)
            incremental = scanner.relations(fb)
            reference = collect_relations(n, fb, m_count)
            assert incremental == reference, (n, bound, m_count)

    def test_staged_rounds_small(self):
        self.check(10403, [(10, 50), (20, 150), (30, 250), (40, 350)])

    def test_staged_rounds_worked_example(self):
        self.check(400289, [(7, 1), (17, 101), (27, 201)])

    def test_random_semiprimes(self):
        rng = random.Random(61)
        for _ in range(15):
            sp = random_semiprime(10, 12, 22, rng)
            schedule = [(10 + 10 * k, 100 + 100 * k) for k in range(4)]
            self.check(sp.n, schedule)

    @given(st.integers(0, 2**32))
    @settings(max_examples=25, deadline=None)
    def test_property_random_composites(self, seed):
        rng = random.Random(seed)
        sp = random_semiprime(9, 11, 20, rng)
        self.check(sp.n, [(10, 60), (20, 160), (30, 260)])

    def test_windows_past_twice_n(self):
        # b*b mod n = b*b - k*n with k > 1 once b*b >= 2n; on n = 91 the
        # window also reaches b = 91, 182, 273, where a = 0
        self.check(10403, [(10, 200), (30, 1000), (50, 2000)])
        self.check(91, [(5, 10), (10, 100), (20, 300)])

    def test_base_prime_dividing_n_admitted_late(self):
        self.check(10403, [(50, 200), (110, 400)])  # 101 and 103 join in round 2
        self.check(7 * 1009, [(5, 100), (10, 200), (1020, 300)])

    def test_a_equal_to_one(self):
        n = 899  # 29 * 31 = 30**2 - 1, so b = 30 gives a = 1
        self.check(n, [(2, 1), (5, 50), (20, 200)])
        scanner = _RelationScanner(n)
        scanner.advance((2,), 1, None)
        assert scanner.relations(build_factor_base(2)) == [Relation(30, 1, (0,), (0,))]

    @given(
        st.integers(6, 10**6),
        st.lists(st.tuples(st.integers(0, 40), st.integers(0, 400)), min_size=1, max_size=4),
    )
    @settings(max_examples=60, deadline=None)
    def test_property_random_schedules(self, n, steps):
        assume(math.isqrt(n) ** 2 != n and not is_probable_prime(n))
        bound, m_count, schedule = 2, 1, []
        for db, dm in steps:
            bound, m_count = bound + db, m_count + dm
            schedule.append((bound, m_count))
        self.check(n, schedule)


class TestQsParams:
    def test_defaults_match_retry_protocol(self):
        params = QsParams()
        assert params.b_bound == 10
        assert params.m_count == 100
        assert params.b_increment == 10
        assert params.m_increment == 100
        assert params.max_rounds == 500

    def test_validation(self):
        with pytest.raises(ValueError):
            QsParams(b_bound=1)
        with pytest.raises(ValueError):
            QsParams(m_count=0)
        with pytest.raises(ValueError):
            QsParams(b_increment=0)
        with pytest.raises(ValueError):
            QsParams(max_rounds=0)
