import itertools
import math
import random
import sys
import time
from collections import Counter

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from factorbench.arith import is_probable_prime
from factorbench.bench import TIMEOUT_SLACK_SECONDS
from factorbench.errors import BudgetExceeded, Deadline, Exhausted, NotComposite
from factorbench.gf2 import BitMatrix, XorBasis, eliminate
from factorbench.pollard import RhoConfig, RhoTrace, pollard_factor
from factorbench.primegen import random_semiprime
from factorbench import errors, sieve
from factorbench.sieve import (
    QsParams,
    QsTrace,
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


def parity_mask(parity):
    return sum(bit << j for j, bit in enumerate(parity))


def exponent_extract(n, fb, rels):
    """Oracle: the congruence of squares with y rebuilt from the halved
    sums of the selected relations' exponent vectors."""
    x = 1
    for rel in rels:
        x = x * rel.b % n
    total = [sum(column) for column in zip(*(rel.exponents for rel in rels))]
    assert not any(e & 1 for e in total)
    y = 1
    for p, e in zip(fb.primes, total):
        y = y * pow(p, e >> 1, n) % n
    for g in (math.gcd(x - y, n), math.gcd(x + y, n)):
        if 1 < g < n:
            return g
    return None


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
        masks = [parity_mask(rel.parity) for rel in rels]
        for dep in eliminate(BitMatrix(len(fb.primes), masks)):
            g = extract_factor(n, [(rels[i].b, rels[i].a) for i in sorted(dep.row_indices)])
            if g is not None:
                return g, round_no, len(rels)
        b_bound += sieve.B_INCREMENT
        m_count += sieve.M_INCREMENT
    return None, params.max_rounds, len(rels)


def relation_triples(scanner, m_count, triples):
    """Confirm the window of m_count candidates and append (b, a, parity
    mask) of each relation the scanner yields to triples, in its order;
    returns triples."""
    for i, mask in scanner.relations(m_count):
        triples.append((*scanner.pair(i), mask))
    return triples


def count_calls(monkeypatch, owner, name, calls):
    """Wrap owner.name so that each call adds one to calls[name]."""
    real = getattr(owner, name)

    def counted(*args):
        calls[name] += 1
        return real(*args)

    monkeypatch.setattr(owner, name, counted)


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
            assert build_factor_base(bound).primes == expected

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
        # the window passes b*b = 2n at index 43, where b*b mod n would wrap
        rels = collect_relations(n, fb, 200)
        assert rels[-1].b * rels[-1].b > 2 * n
        for rel in rels:
            assert rel.b * rel.b - n == rel.a
            assert reconstruct(rel.exponents, fb) == rel.a
            assert rel.parity == tuple(e & 1 for e in rel.exponents)

    def test_scan_order_preserved(self):
        rels = collect_relations(10403, build_factor_base(30), 200)
        bs = [r.b for r in rels]
        assert bs == sorted(bs)


class TestExtractFactor:
    def test_worked_example_zero_parity(self):
        n = 400289
        rels = collect_relations(n, build_factor_base(7), 1)
        g = extract_factor(n, [(rel.b, rel.a) for rel in rels])
        assert g == 613
        assert 613 * 653 == n

    def test_parity_violation_rejected(self):
        n = 61 * 67
        assert 65 * 65 % n == 138  # 2 * 3 * 23: not a square
        with pytest.raises(ValueError):
            extract_factor(n, [(65, 138)])

    def test_trivial_when_x_equals_y(self):
        # b*b = b*b (mod n) with a = b*b itself: x = b, y = b, gcd = n
        n = 61 * 67
        b = 4
        assert extract_factor(n, [(b, b * b % n)]) is None

    @given(st.integers(8, 13), st.integers(8, 13), st.integers(0, 2**32))
    @settings(max_examples=40, deadline=None)
    def test_matches_exponent_oracle(self, p_bits, q_bits, seed):
        sp = random_semiprime(p_bits, q_bits, p_bits + q_bits, random.Random(seed))
        fb = build_factor_base(30)
        rels = collect_relations(sp.n, fb, 300)
        for dep in eliminate(BitMatrix(len(fb.primes), [parity_mask(r.parity) for r in rels])):
            selected = [rels[i] for i in sorted(dep.row_indices)]
            expected = exponent_extract(sp.n, fb, selected)
            assert extract_factor(sp.n, [(r.b, r.a) for r in selected]) == expected


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
        g, trace = qs_factor(101 * 101, QsParams())
        assert g == 101
        assert trace.rounds == 0

    def test_small_n_rejected(self):
        # the entry rule pollard_factor shares: n = 1 is no input, and 2 and
        # 3 are primes like any other
        calls = (lambda n: qs_factor(n, QsParams()), lambda n: pollard_factor(n, RhoConfig(seed=0)))
        for factor in calls:
            with pytest.raises(ValueError, match="n must be >= 2"):
                factor(1)
            for n in (2, 3):
                with pytest.raises(NotComposite):
                    factor(n)

    def test_not_composite_carries_a_trace_of_no_work(self):
        # every FactorError carries its call's trace; a prime stops at the
        # screen, before any walk or round
        calls = (
            (lambda n: qs_factor(n, QsParams()), QsTrace()),
            (lambda n: pollard_factor(n, RhoConfig(seed=0)), RhoTrace()),
        )
        for factor, no_work in calls:
            for n in (2, 3, 613, 10**9 + 7, 2**89 - 1):
                with pytest.raises(NotComposite) as exc_info:
                    factor(n)
                assert exc_info.value.trace == no_work, n

    def test_n_wider_than_max_bits_rejected_before_the_screen(self, monkeypatch):
        # 2**513 + 1 is divisible by 3, which the small-factor check would return
        def no_screen(n):
            raise AssertionError("the primality screen ran")

        monkeypatch.setattr(sieve, "is_probable_prime", no_screen)
        with pytest.raises(ValueError, match="n_bits must be <= 512"):
            qs_factor(2**513 + 1, QsParams(), 0.05)

    @pytest.mark.parametrize("budget", [float("nan"), 0.0, -1.0])
    def test_non_positive_or_nan_budget_rejected(self, budget):
        with pytest.raises(ValueError, match="budget_seconds must be positive"):
            qs_factor(946613331739179941, QsParams(max_rounds=60), budget)

    def test_budget_exceeded_carries_trace(self, expire_after):
        # the number can sieve in under 20 ms, polling the deadline about
        # 1400 times, so the clock runs the budget out at its 100th read
        sp = random_semiprime(30, 30, 60, random.Random(17))
        expire_after(100)
        with pytest.raises(BudgetExceeded) as exc_info:
            qs_factor(sp.n, QsParams(), budget_seconds=0.02)
        assert exc_info.value.trace is not None
        assert exc_info.value.trace.rounds >= 1

    def test_budget_polled_while_a_wide_window_fills(self):
        sp = random_semiprime(30, 30, 60, random.Random(17))
        start = time.monotonic()
        with pytest.raises(BudgetExceeded):
            qs_factor(sp.n, QsParams(m_count=10**6), budget_seconds=0.02)
        assert time.monotonic() - start <= 0.02 + TIMEOUT_SLACK_SECONDS

    # extra_polls: 0 lets the deadline pass at the check's first poll, 1 at
    # its second, before the second prime; no walk is ever reached
    @pytest.mark.parametrize("extra_polls", [0, 1])
    def test_first_round_small_factor_check_polls(self, monkeypatch, extra_polls):
        sp = random_semiprime(30, 30, 60, random.Random(12))
        reads = 0
        taken = []  # the primes the check has drawn, each just before its poll
        real_primes_upto = sieve._primes_upto

        class RecordingTable(tuple):
            def __getitem__(self, k):  # the round's slice records what it yields
                got = tuple.__getitem__(self, k)
                return (taken.append(p) or p for p in got) if isinstance(k, slice) else got

        def clock():  # the first read sets the deadline
            nonlocal reads
            reads += 1
            return 0.0 if reads <= 1 + extra_polls else 2.0

        def no_advance(*args):
            raise AssertionError("the scanner ran")

        monkeypatch.setattr(errors.time, "monotonic", clock)
        monkeypatch.setattr(sieve, "_primes_upto", lambda bound: RecordingTable(real_primes_upto(bound)))
        monkeypatch.setattr(_RelationScanner, "advance", no_advance)
        with pytest.raises(BudgetExceeded):
            qs_factor(sp.n, QsParams(b_bound=20000), 1.0)
        assert reads == 2 + extra_polls
        assert taken == [2, 3][: 1 + extra_polls]

    def test_masks_built_only_for_rows_the_basis_reduces(self, monkeypatch):
        # the one round splits n after reducing about a fifth of its
        # relations, and the rest are confirmed but never reduced; each
        # mask comes from the division that confirms its relation, so no
        # candidate is divided twice
        calls, divided = Counter(), Counter()
        count_calls(monkeypatch, XorBasis, "add", calls)
        real_divide = _RelationScanner._divide

        def recording_divide(scanner, i):
            divided[i] += 1
            return real_divide(scanner, i)

        monkeypatch.setattr(_RelationScanner, "_divide", recording_divide)
        params = QsParams(b_bound=10**5, m_count=10**5, max_rounds=1)
        g, trace = qs_factor(946613331739179941, params)
        assert 946613331739179941 % g == 0
        assert (calls["add"], trace.relations_found) == (1503, 7266)
        assert len(divided) >= trace.relations_found
        assert max(divided.values()) == 1

    def test_rounds_exhausted(self):
        sp = random_semiprime(20, 20, 40, random.Random(18))
        with pytest.raises(Exhausted):
            qs_factor(sp.n, QsParams(b_bound=2, m_count=1, max_rounds=2))

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
        params = QsParams(b_bound=10, m_count=1)
        g, trace = qs_factor(sp.n, params, budget_seconds=60.0)
        assert sp.n % g == 0
        assert trace.final_b == params.b_bound + (trace.rounds - 1) * sieve.B_INCREMENT
        assert trace.final_m == params.m_count + (trace.rounds - 1) * sieve.M_INCREMENT

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
        for n_bits in [24, 26, 28, 30, 32, 34, 36, 38, 40] * 2 + [25, 33, 12, 16, 20]:
            p_bits = rng.randrange(5, n_bits // 2 + 1)
            sp = random_semiprime(p_bits, n_bits - p_bits, n_bits, rng)
            g, trace = qs_factor(sp.n, params)
            ref_g, ref_rounds, ref_relations = reference_qs(sp.n, params)
            assert ref_g is not None
            assert 1 < g < sp.n and sp.n % g == 0
            assert trace.rounds == ref_rounds, sp
            assert trace.relations_found == ref_relations, sp

    def test_rounds_and_relations_from_a_cold_prime_table(self, monkeypatch):
        # each call starts with an empty prime table, so its own rounds grow
        # it (at rounds 1, 2, 3, 5, 9, 17, ... of the default schedule)
        rng = random.Random(2025)
        params = QsParams()
        for n_bits in [12, 20, 24, 28, 32, 36]:
            p_bits = rng.randrange(5, n_bits // 2 + 1)
            sp = random_semiprime(p_bits, n_bits - p_bits, n_bits, rng)
            monkeypatch.setattr(sieve, "_prime_table", (1, ()))
            g, trace = qs_factor(sp.n, params)
            ref_g, ref_rounds, ref_relations = reference_qs(sp.n, params)
            assert ref_g is not None
            assert 1 < g < sp.n and sp.n % g == 0
            assert trace.rounds == ref_rounds, sp
            assert trace.relations_found == ref_relations, sp


class TestBlockSize:
    """Every flagged candidate is confirmed by exact division, so the block
    size moves only the work: sieving further past the window, and walking
    each root less often."""

    # 40-60 bits, random_semiprime draws; 31 and 29 are 5-bit factors
    NUMBERS = (
        854349083849,
        652081369837,
        1915916504851,
        31449610205879,
        935007034919939,
        750571333080311,
        762697979151961,
        1452152554904759,
        12230512372056239,
        55377770994133661,
        960989624175709987,
        609711773872494347,
    )

    def test_outcomes_do_not_depend_on_the_block_size(self, monkeypatch):
        outcomes = {}
        for block in (1024, 2048, 4096):
            monkeypatch.setattr(sieve, "BLOCK", block)
            monkeypatch.setattr(sieve, "_BLOCK0_CUTS", (0, *(1 << e for e in range(block.bit_length() - 1))))
            outcomes[block] = [qs_factor(n) for n in self.NUMBERS]
        assert outcomes[1024] == outcomes[2048] == outcomes[4096]
        assert [g for g, _ in outcomes[1024] if g.bit_length() == 5] == [31, 29]
        # a power of 2, 3, 5 or 7 of at least 4096 is at or past the flag
        # level at every size, so the last window of 762697979151961 holds
        # a candidate every size flags and division turns down
        n = self.NUMBERS[6]
        _, trace = outcomes[1024][6]
        fb = build_factor_base(trace.final_b)
        s = math.isqrt(n) + 1
        window = ((s + i) ** 2 - n for i in range(trace.final_m))
        assert any(
            any(a % q == 0 for q in (2**12, 3**8, 5**6, 7**5)) and smooth_decompose(a, fb) is None
            for a in window
        )


class TestScannerMatchesReference:
    """The incremental scanner must reproduce fresh rescans exactly."""

    def step(self, scanner, triples, bound, m_count):
        """One round with the base up to `bound`, its relations' triples
        appended to `triples`, those of every round so far: every relation
        of the window so far with the mask its confirmation yields, none
        past it, and this round's new ones in b order."""
        fb = build_factor_base(bound)
        before = len(scanner.smooth)
        scanner.advance(fb.primes[len(scanner.primes) :], m_count)
        relation_triples(scanner, m_count, triples)
        reference = [
            (rel.b, rel.a, parity_mask(rel.parity))
            for rel in collect_relations(scanner.n, fb, m_count)
        ]
        assert sorted(triples) == reference, (scanner.n, bound, m_count)
        assert [b for b, _, _ in triples] == [scanner.pair(i)[0] for i in scanner.smooth]
        new = scanner.smooth[before:]
        assert new == sorted(new)

    def check(self, n, schedule):
        scanner, triples = _RelationScanner(n, Deadline(None)), []
        for bound, m_count in schedule:
            self.step(scanner, triples, bound, m_count)

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
        # a = b*b - n keeps growing past b*b = 2n, where b*b mod n would
        # wrap; on n = 91 the window also passes b = 91, 182, 273, where
        # b*b mod n would be 0
        self.check(10403, [(10, 200), (30, 1000), (50, 2000)])
        self.check(91, [(5, 10), (10, 100), (20, 300)])

    def test_each_prime_rooted_once_past_twice_n(self, monkeypatch):
        # the windows reach b*b = 20n and more on a 24-bit n, yet every base
        # prime's roots of n are found once, in the call that admits it
        rooted = []
        real_sqrt_mod_prime = sieve.sqrt_mod_prime

        def counting_sqrt_mod_prime(c, p):
            rooted.append(p)
            return real_sqrt_mod_prime(c, p)

        monkeypatch.setattr(sieve, "sqrt_mod_prime", counting_sqrt_mod_prime)
        sp = random_semiprime(12, 12, 24, random.Random(5))
        scanner, triples = _RelationScanner(sp.n, Deadline(None)), []
        for bound, m_count in [(500, 3000), (1000, 9000), (2000, 20000)]:
            self.step(scanner, triples, bound, m_count)
        assert (scanner.start_b + 20000) ** 2 > 20 * sp.n
        assert rooted == scanner.primes == list(build_factor_base(2000).primes)

    def test_base_prime_dividing_n_admitted_late(self):
        self.check(10403, [(50, 200), (110, 400)])  # 101 and 103 join in round 2
        self.check(7 * 1009, [(5, 100), (10, 200), (1020, 300)])

    def test_a_equal_to_one(self):
        n = 899  # 29 * 31 = 30**2 - 1, so b = 30 gives a = 1
        self.check(n, [(2, 1), (5, 50), (20, 200)])
        scanner = _RelationScanner(n, Deadline(None))
        scanner.advance((2,), 1)
        assert relation_triples(scanner, 1, []) == [(30, 1, 0)]

    def test_bucketed_primes_across_k_boundaries(self):
        # primes past NOTE_MIN join every round or two while the windows
        # pass b*b = 2n, 3n, ... every few candidates, so bucket entries are
        # filed across those points, and in the last call across a block edge
        self.check(10403, [(150 + 10 * j, 200 + 137 * j) for j in range(15)])

    def test_run_starting_at_the_old_window_end(self):
        # on 10403, b*b passes 2n, 3n, 4n and 5n at indices 43, 75, 102 and
        # 127, each at the window's end of the call before, inside the first
        # block
        ends = [43, 60, 75, 90, 102, 115, 127, 140]
        self.check(10403, [(150 + 10 * j, m_count) for j, m_count in enumerate(ends)])
        # b*b passes a multiple of n at the first block's edge, in the call
        # that adds the second block, and the base runs past BLOCK, so the
        # entries of its largest primes are filed in blocks that later calls add
        def multiple_of_n_at_block_edge(n):
            b = math.isqrt(n - 1) + 1 + sieve.BLOCK  # the second block's first b
            return not is_probable_prime(n) and b * b // n != (b - 1) ** 2 // n

        n = next(filter(multiple_of_n_at_block_edge, range(10**6 + 1, 2 * 10**6, 2)))
        bound = sieve.BLOCK + 500
        windows = [sieve.BLOCK - 5, sieve.BLOCK + 50, 2 * sieve.BLOCK + 50, 3 * sieve.BLOCK]
        self.check(n, [(bound + 10 * j, m_count) for j, m_count in enumerate(windows)])

    @pytest.mark.parametrize("bits", [20, 32])
    def test_default_schedule_past_block(self, bits):
        # 30 rounds of the +10/+100 schedule: the base passes NOTE_MIN, the
        # window a block edge, and relations wait past each window; at 20
        # bits the windows pass b*b = 2n, 3n, ..., at 32 bits they stay below 2n
        sp = random_semiprime(bits // 2, bits // 2, bits, random.Random(8))
        self.check(sp.n, [(10 + 10 * j, 100 + 100 * j) for j in range(30)])

    def test_first_window_wider_than_a_fill(self):
        sp = random_semiprime(15, 15, 30, random.Random(9))
        self.check(sp.n, [(300, 3079), (310, 3179), (420, 3584)])

    def test_prime_past_block_squared(self):
        # b = 1281 (index 219) gives a = 2 * 3 * 5 * 131**2: the notes hold 131
        # twice, so its bit must come out even while 2, 3 and 5 stay odd
        self.check(1126131, [(140, 250)])
        self.check(1126131, [(100, 150), (140, 250), (150, 350)])

    def test_prime_past_block_cubed(self):
        # b = 30655 (index 220) gives a = 2 * 3 * 131**3, found by a new
        # prime's walk over the whole window and by an old prime's tail walk
        self.check(926240479, [(100, 230), (140, 330)])
        self.check(926240479, [(140, 100), (150, 250)])

    def test_windows_ending_inside_a_block(self):
        sp = random_semiprime(15, 15, 30, random.Random(9))
        half = sieve.BLOCK // 2
        self.check(sp.n, [(100, half - 1), (150, half + 3), (200, sieve.BLOCK + half)])

    def test_windows_inside_the_sieved_blocks(self):
        # every window after the first stays inside the first block: new
        # primes walk the whole block, and the relations past each window
        # wait, with or without new primes
        sp = random_semiprime(15, 15, 30, random.Random(9))
        m = sieve.BLOCK // 8
        self.check(sp.n, [(30, 1), (60, m), (60, 2 * m), (200, 3 * m), (200, sieve.BLOCK)])

    def test_bound_jump_smooths_candidates_past_the_window(self):
        # the jump from 30 to 600 makes candidates past the window smooth;
        # they keep their zero bytes until the window reaches them
        sp = random_semiprime(15, 15, 30, random.Random(9))
        scanner, triples = _RelationScanner(sp.n, Deadline(None)), []
        self.step(scanner, triples, 30, 100)
        self.step(scanner, triples, 600, 200)
        fb30, fb600 = build_factor_base(30), build_factor_base(600)
        waiting = [
            i for i in range(200, len(scanner.need)) if smooth_decompose(scanner.pair(i)[1], fb600) is not None
        ]
        assert any(smooth_decompose(scanner.pair(i)[1], fb30) is None for i in waiting)
        assert all(scanner.need[i] == 0 for i in waiting)
        self.step(scanner, triples, 610, 300)
        self.step(scanner, triples, 620, sieve.BLOCK + 1)

    def test_confirms_inside_the_window_only(self, monkeypatch):
        # a candidate flagged past the window waits with its zero byte, so no
        # round divides one; the schedules flag candidates past the window
        # by a bound jump, and by the default schedule's windows inside a block
        window = None  # the running confirmation's m_count
        divided = []  # (m_count, index) of each _divide inside relations
        real_relations, real_divide = _RelationScanner.relations, _RelationScanner._divide

        def windowed_relations(scanner, m_count):
            nonlocal window
            window = m_count
            yield from real_relations(scanner, m_count)
            window = None

        def recording_divide(scanner, i):
            if window is not None:
                divided.append((window, i))
            return real_divide(scanner, i)

        monkeypatch.setattr(_RelationScanner, "relations", windowed_relations)
        monkeypatch.setattr(_RelationScanner, "_divide", recording_divide)
        sp = random_semiprime(15, 15, 30, random.Random(9))
        self.check(sp.n, [(30, 100), (600, 200), (610, 300), (620, sieve.BLOCK + 1)])
        sp = random_semiprime(10, 10, 20, random.Random(8))
        self.check(sp.n, [(10 + 10 * j, 100 + 100 * j) for j in range(12)])
        assert len(divided) > 100
        assert all(i < m_count for m_count, i in divided)

    def test_first_window_a_multiple_of_block(self):
        sp = random_semiprime(15, 15, 30, random.Random(9))
        self.check(sp.n, [(200, sieve.BLOCK), (210, sieve.BLOCK + 100), (220, 2 * sieve.BLOCK)])

    def test_window_crossing_several_blocks_in_one_call(self):
        # the second call adds three blocks at once, so old primes walk them
        # in one go and file their entries past all of them
        sp = random_semiprime(15, 15, 30, random.Random(9))
        self.check(sp.n, [(150, 50), (160, 3 * sieve.BLOCK + 17), (170, 3 * sieve.BLOCK + 117)])
        self.check(10403, [(150, 50), (160, 3 * sieve.BLOCK + 17), (170, 4 * sieve.BLOCK)])
        # primes past BLOCK, which hit a block at most once per root
        bound = sieve.BLOCK + 300
        windows = [50, 3 * sieve.BLOCK + 17, 4 * sieve.BLOCK + 1]
        self.check(sp.n, [(bound + 10 * j, m_count) for j, m_count in enumerate(windows)])

    def test_base_crossing_block_within_a_call(self):
        # one call admits 101..127 and 131..157 together; b = 6091 (index 220)
        # gives a = 2 * 7 * 11 * 131**2
        self.check(34457487, [(100, 150), (160, 300), (170, 400)])

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

    def test_prime_past_the_flag_step_joining_late(self):
        # 1031..1097 join in the second call; level 1 of a prime at or past
        # BLOCK still credits and notes it, so its relations are kept
        self.check(19034063, [(300, 1200), (1100, 1300)])

    def test_relation_with_a_high_power_of_two(self):
        # b = 2719 gives a = 2**15 * 5**2: the levels of 2 credit 9 bits and
        # then flag it, which alone brings it to confirmation
        self.check(6573761, [(30, 300)])
        self.check(6573761, [(10, 100), (30, 300), (40, 400)])

    def test_a_past_two_to_the_255(self):
        # n = 2**512 - 2**256 gives b = 2**256 and a = 2**256 at index 0, and
        # every a in the window is wider than a byte's 255 bits can count;
        # 2, 3, 5, 17 and 257 divide n
        self.check(2**512 - 2**256, [(20, 50), (300, 400)])

    @pytest.mark.parametrize(
        "n, bound",
        [
            (939524593, 400),  # 7 * 134217799: 7 divides n, and n = 1 (mod 8)
            (random_semiprime(20, 20, 40, random.Random(3)).n, 1500),  # = 1 (mod 8)
        ],
    )
    def test_bytes_match_the_valuation_oracle(self, n, bound):
        # after one advance, each byte is 0 where a prime's flag-level power
        # p**K divides a, K the first k >= 2 with p**k >= BLOCK, and
        # otherwise its start less ceil(log2 p) bits for each power of p
        # below p**K that divides a, saturating at 0; n = 1 (mod 8) lets 2
        # reach its flag level 2**10 inside the three blocks
        fb = build_factor_base(bound)
        m_count = 2 * sieve.BLOCK + 100
        scanner, twin = _RelationScanner(n, Deadline(None)), _RelationScanner(n, Deadline(None))
        scanner.advance(fb.primes, m_count)
        twin.advance((), m_count)  # the bytes before any credit
        flag_levels = {p: next(k for k in itertools.count(2) if p**k >= sieve.BLOCK) for p in fb.primes}
        expected = bytearray()
        for i, start in enumerate(twin.need):
            a, credits = scanner.pair(i)[1], 0
            for p, flag_level in flag_levels.items():
                v = 0
                while v < flag_level and a % p == 0:
                    a //= p
                    v += 1
                if v == flag_level:
                    expected.append(0)
                    break
                credits += v * (p - 1).bit_length()
            else:
                expected.append(max(0, start - credits))
        assert len(scanner.need) == 3 * sieve.BLOCK
        assert scanner.need == expected
        assert 0 in expected and any(0 < e < s for e, s in zip(expected, twin.need))


class TestRootLevels:
    """Each level's progressions b = r (mod step) are exactly the b, mod
    p**k, on which p**k divides b*b - n, and the levels stop at the flag
    level, the first k >= 2 with p**k >= BLOCK, or where none is left."""

    @staticmethod
    def brute_levels(n, p, count):
        """Oracle: the roots of n mod p, p**2, ..., p**count, each level's
        by trying every lift of the last level's roots."""
        levels, roots, q = [], [0], 1
        for _ in range(count):
            roots = [x for r in roots for x in range(r, q * p, q) if (x * x - n) % (q * p) == 0]
            q *= p
            levels.append(sorted(roots))
        return levels

    def check(self, n, p):
        levels = sieve._root_levels(n, p)
        past_flag = bool(levels) and levels[-1][2]
        expected = self.brute_levels(n, p, len(levels) + (not past_flag))
        q = p
        for k, (step, roots, flag) in enumerate(levels, 1):
            assert q % step == 0 and list(roots) == sorted(set(roots)) and roots[-1] < step
            assert sorted(r + t * step for t in range(q // step) for r in roots) == expected[k - 1], (n, p, k)
            assert flag == (k >= 2 and q >= sieve.BLOCK), (n, p, k)
            q *= p
        if not past_flag:
            assert expected[-1] == [], (n, p)

    def test_every_small_prime_up_to_its_flag_level(self):
        rng = random.Random(31)
        small = [p for p in build_factor_base(sieve.NOTE_MIN).primes if p < sieve.NOTE_MIN]
        assert len(small) == 31
        for n in [rng.randrange(2**59, 2**60) for _ in range(6)] + [10403, 946613331739179941]:
            for p in small:
                self.check(n, p)

    def test_two_in_each_class_mod_8(self):
        # n = 1 (mod 8) has four roots mod every 2**k, k >= 3, and n = 0 (mod
        # 8) roots that depend on how many 2s divide n
        rng = random.Random(32)
        for residue in range(8):
            for _ in range(6):
                self.check(8 * rng.randrange(10**12) + residue, 2)
        for e in range(1, 14):
            self.check(2**e * 5, 2)
            self.check(2**e * 17, 2)

    def test_prime_dividing_n(self):
        # p | n leaves b = 0 (mod p) as the one root, which lifts by every
        # t or by none; the levels are those of p**e exactly dividing n
        for p in (3, 5, 31, 37, 127, 1009):
            for e in (1, 2, 3, 5):
                for m in (2, 7, 11 * 13):
                    self.check(p**e * m, p)
                    self.check(p**e * m + p**(e + 1), p)

    def test_square_roots_of_large_primes(self):
        # a prime past NOTE_MIN has level 1 and its flag level p**2 only
        rng = random.Random(33)
        primes = [p for p in build_factor_base(20000).primes if p > sieve.NOTE_MIN]
        for p in [131, 1031, 65537] + rng.sample(primes, 10):
            for _ in range(3):
                n = rng.randrange(2**59, 2**60)
                self.check(n, p)
                assert len(sieve._root_levels(n, p)) in (0, 2)


class TestScannerDeadlinePolls:
    """A deadline that passes once the region has grown is still caught
    before `advance` returns, by a new block's poll, a root loop's or a
    walk's, and one that passes after `advance` by the poll before each
    flagged candidate that `relations` divides, which gives `qs_factor`
    each relation's mask."""

    def test_each_new_block_polls(self, expire_after):
        # with no primes only the block loop reads the clock; the deadline
        # passes at the third new block's poll, so no fourth is appended
        sp = random_semiprime(15, 15, 30, random.Random(12))
        scanner = _RelationScanner(sp.n, Deadline(60.0))
        expire_after(0, lambda: len(scanner.need) >= 3 * sieve.BLOCK)
        with pytest.raises(BudgetExceeded):
            scanner.advance((), 5 * sieve.BLOCK)
        assert len(scanner.need) == 3 * sieve.BLOCK

    # extra_polls: 0 lets the deadline pass right after the polls that come
    # before any walk, the last new block's and, with new primes, the root
    # loop's first, so only the first walk's poll can catch it; 1 lets that
    # poll pass too, so only the second walk's can. old_m: 0 has new primes
    # walk a fresh region, 100 has old primes walk three new blocks, both
    # wider than BLOCK
    @pytest.mark.parametrize("extra_polls", [0, 1])
    @pytest.mark.parametrize("old_m", [0, 100])
    def test_walk_wider_than_block_polls(self, expire_after, extra_polls, old_m):
        sp = random_semiprime(15, 15, 30, random.Random(12))
        fb = build_factor_base(60)
        scanner = _RelationScanner(sp.n, Deadline(60.0))
        new_primes = fb.primes
        if old_m:
            scanner.advance(new_primes, old_m)
            new_primes = ()
        m_count = old_m + 3 * sieve.BLOCK
        polls = 1 + bool(new_primes) + extra_polls
        expire_after(polls, lambda: len(scanner.need) >= m_count)
        with pytest.raises(BudgetExceeded):
            scanner.advance(new_primes, m_count)

    def test_confirming_many_flagged_candidates_polls(self, expire_after):
        # the window holds many flagged candidates; the deadline passes once
        # the first relation is confirmed, so the poll before the next
        # flagged candidate catches it
        scanner = _RelationScanner(946613331739179941, Deadline(60.0))
        scanner.advance(build_factor_base(20000).primes, 20000)
        expire_after(0, lambda: bool(scanner.smooth))
        with pytest.raises(BudgetExceeded):
            for _ in scanner.relations(20000):
                pass
        assert len(scanner.smooth) == 1
        assert scanner.need.count(0, 0, 20000) > 1

    # extra_polls: 1 lets the deadline pass right after the one new block's
    # poll, so the poll before the first new prime catches it, 2 after that
    # poll as well, so the poll before the second does; the sieved region
    # is one BLOCK, so no walk polls
    @pytest.mark.parametrize("extra_polls", [1, 2])
    def test_rooting_many_new_primes_polls(self, monkeypatch, expire_after, extra_polls):
        sp = random_semiprime(15, 15, 30, random.Random(12))
        primes = build_factor_base(20000).primes
        scanner = _RelationScanner(sp.n, Deadline(60.0))
        rooted = 0
        real_sqrt_mod_prime = sieve.sqrt_mod_prime

        def counting_sqrt_mod_prime(*args):
            nonlocal rooted
            rooted += 1
            return real_sqrt_mod_prime(*args)

        monkeypatch.setattr(sieve, "sqrt_mod_prime", counting_sqrt_mod_prime)
        expire_after(extra_polls, lambda: len(scanner.need) >= 100)
        with pytest.raises(BudgetExceeded):
            scanner.advance(primes, 100)
        assert rooted == extra_polls - 1

    # extra_polls: 0 lets the deadline pass right after the walks, so the
    # merged loop's poll before its first flagged candidate catches it; 1
    # lets that poll pass too, so the poll before the second does. The
    # round reduces 651 of its 817 relations before it splits n.
    @pytest.mark.parametrize("extra_polls", [0, 1])
    def test_building_many_masks_polls(self, monkeypatch, expire_after, extra_polls):
        walked = False
        real_advance = _RelationScanner.advance

        def advance_then_flag(*args):
            nonlocal walked
            real_advance(*args)
            walked = True

        calls = Counter()
        monkeypatch.setattr(_RelationScanner, "advance", advance_then_flag)
        count_calls(monkeypatch, XorBasis, "add", calls)
        count_calls(monkeypatch, _RelationScanner, "_divide", calls)
        expire_after(extra_polls, lambda: walked)
        params = QsParams(b_bound=20000, m_count=20000, max_rounds=1)
        with pytest.raises(BudgetExceeded) as exc_info:
            qs_factor(946613331739179941, params, 60.0)
        assert calls["_divide"] == extra_polls
        assert exc_info.value.trace.relations_found == calls["add"] <= extra_polls


class TestScannerMemory:
    def test_root_entries_grow_linearly_with_the_base(self):
        # The bound, fixed before any measurement: an entry is a tuple of
        # three ints below 2**62, at most 64 + 3 * 32 = 160 bytes by
        # sys.getsizeof on 64-bit CPython. A rooted prime at or past NOTE_MIN
        # keeps at most four (two roots at level 1, two at its flag level
        # p**2) when it does not divide n; one below NOTE_MIN keeps one per
        # root of each power up to its flag level, more than four, but at
        # most 31 such primes are among the thousands rooted here, so the
        # bound stays 640 bytes a rooted prime over this base. An entry holding
        # the mask bit 1 << j instead of j would add about j / 8 bytes, some
        # 600 on average over these 9592 base primes.
        primes = build_factor_base(10**5).primes
        scanner = _RelationScanner(946613331739179941, Deadline(None))
        scanner.advance(primes, 100)
        entries = [entry for bucket in scanner.buckets.values() for entry in bucket]
        rooted = {entry[2] for entry in entries if entry[2] >= 0}
        size = sum(sys.getsizeof(entry) + sum(map(sys.getsizeof, entry)) for entry in entries)
        assert len(rooted) > 4000
        assert size <= 640 * len(rooted)


class TestQsParams:
    def test_defaults_match_retry_protocol(self):
        params = QsParams()
        assert params.b_bound == 10
        assert params.m_count == 100
        assert (sieve.B_INCREMENT, sieve.M_INCREMENT) == (10, 100)
        assert params.max_rounds == 500

    def test_validation(self):
        with pytest.raises(ValueError):
            QsParams(b_bound=1)
        with pytest.raises(ValueError):
            QsParams(m_count=0)
        QsParams(b_bound=10**6, m_count=10**6)
        with pytest.raises(ValueError, match="b_bound must be <= 1000000"):
            QsParams(b_bound=10**6 + 1)
        with pytest.raises(ValueError, match="m_count must be <= 1000000"):
            QsParams(m_count=10**6 + 1)
        with pytest.raises(ValueError):
            QsParams(max_rounds=0)
