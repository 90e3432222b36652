import math
import random
import statistics
import sys
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from factorbench import pollard
from factorbench.arith import FIRST_TEN_PRIMES
from factorbench.errors import BudgetExceeded, Exhausted, NotComposite
from factorbench.pollard import BATCH, RhoConfig, RhoTrace, pollard_factor
from factorbench.primegen import make_semiprime, random_semiprime


def trial_division_factor(n):
    """Oracle: smallest prime factor by scanning upward."""
    d = 2
    while d * d <= n:
        if n % d == 0:
            return d
        d += 1
    return n


def per_step_pollard(n, seed, walk_cap):
    """Oracle: the Floyd walk with a gcd after every step, without a deadline,
    for at most walk_cap walks.

    Returns (factor, trace, walks), where factor is None when every restart
    ended with gcd = n and walks lists (steps, gcd) for each walk.
    """
    trace = RhoTrace()
    for p in FIRST_TEN_PRIMES:
        if p < n and n % p == 0:
            return p, trace, []
    rng = random.Random(seed)
    walks = []
    for attempt in range(walk_cap):
        c = rng.randrange(1, n)
        x = rng.randrange(1, n)
        trace.restarts = attempt
        y = (x * x + c) % n
        steps = 0
        while True:
            x = (x * x + c) % n
            y = (y * y + c) % n
            y = (y * y + c) % n
            trace.iterations += 1
            steps += 1
            d = math.gcd(x - y, n)
            if d != 1:
                break
        walks.append((steps, d))
        if d != n:
            return d, trace, walks
    return None, trace, walks


def brent_tail_and_cycle(x0, c, p):
    """Tail length mu and cycle length lam of x -> x*x + c (mod p) from x0,
    by Brent's cycle finder."""
    power = lam = 1
    tortoise, hare = x0, (x0 * x0 + c) % p
    while tortoise != hare:
        if power == lam:
            tortoise, power, lam = hare, 2 * power, 0
        hare = (hare * hare + c) % p
        lam += 1
    tortoise = hare = x0
    for _ in range(lam):
        hare = (hare * hare + c) % p
    mu = 0
    while tortoise != hare:
        tortoise, hare = (tortoise * tortoise + c) % p, (hare * hare + c) % p
        mu += 1
    return mu, lam


def rho_work_oracle(p, q, seed):
    """Oracle: (factor, iterations, restarts) of pollard_factor on n = p*q,
    p and q distinct primes above the trial-division primes, from the cycle
    structure of the walk mod p and mod q alone; factor is None when every
    restart ended with gcd = n.

    Step i compares x_i with x_{2i+1}, so mod a prime with tail mu and cycle
    lam the walk stops at the first i >= 1 with i >= mu and lam | i + 1. On
    n it stops at the smaller of the two primes' indices, exposing that
    prime, and restarts when they are equal. (c, x0) are redrawn in
    pollard_factor's order.
    """
    n = p * q
    rng = random.Random(seed)
    iterations = 0
    for attempt in range(pollard.MAX_RESTARTS):
        c = rng.randrange(1, n)
        x0 = rng.randrange(1, n)
        stops = {}
        for r in (p, q):
            mu, lam = brent_tail_and_cycle(x0 % r, c % r, r)
            stops[r] = -(-(max(mu, 1) + 1) // lam) * lam - 1
        iterations += min(stops.values())
        if stops[p] != stops[q]:
            return min(stops, key=stops.get), iterations, attempt
    return None, iterations, pollard.MAX_RESTARTS - 1


def floyd_differences(n, seed, steps):
    """x_i - y_i for the first `steps` steps of the first walk of (n, seed)."""
    rng = random.Random(seed)
    c = rng.randrange(1, n)
    x = rng.randrange(1, n)
    y = (x * x + c) % n
    diffs = []
    for _ in range(steps):
        x = (x * x + c) % n
        y = (y * y + c) % n
        y = (y * y + c) % n
        diffs.append(x - y)
    return diffs


def assert_matches_oracle(n, seed):
    """pollard_factor's (factor, iterations, restarts) agree with the
    per-step oracle's under the same restart cap; returns the oracle's walks."""
    factor, want, walks = per_step_pollard(n, seed, pollard.MAX_RESTARTS)
    cfg = RhoConfig(seed=seed)
    if factor is None:
        with pytest.raises(Exhausted) as info:
            pollard_factor(n, cfg)
        got = info.value.trace
    else:
        d, got = pollard_factor(n, cfg)
        assert d == factor
    assert (got.iterations, got.restarts) == (want.iterations, want.restarts)
    return walks


class TestPollardFactor:
    def test_8051(self):
        d, trace = pollard_factor(8051, RhoConfig(seed=7))
        assert d in {83, 97}
        assert d * (8051 // d) == 8051
        assert trial_division_factor(8051) == 83

    def test_paper_cited_44_bit(self):
        n = 11752700814259
        d, _ = pollard_factor(n, RhoConfig(seed=0), budget_seconds=10.0)
        assert 1 < d < n and n % d == 0

    def test_prime_input(self):
        with pytest.raises(NotComposite):
            pollard_factor(613, RhoConfig(seed=0))

    def test_small_prime_precheck(self):
        d, trace = pollard_factor(35, RhoConfig(seed=0))
        assert d == 5
        assert (trace.iterations, trace.restarts) == (0, 0)

    def test_below_two_rejected(self):
        with pytest.raises(ValueError):
            pollard_factor(1, RhoConfig(seed=0))

    def test_n_wider_than_max_bits_rejected_before_the_screen(self, monkeypatch):
        # 2**513 + 1 is divisible by 3, which the trial division would return
        def no_screen(n):
            raise AssertionError("the primality screen ran")

        monkeypatch.setattr(pollard, "is_probable_prime", no_screen)
        with pytest.raises(ValueError, match="n_bits must be <= 512"):
            pollard_factor(2**513 + 1, RhoConfig(seed=0), 0.05)

    def test_factor_always_divides(self):
        rng = random.Random(31337)
        for _ in range(60):
            sp = random_semiprime(11, 13, 24, rng)
            d, _ = pollard_factor(sp.n, RhoConfig(seed=5), budget_seconds=10.0)
            assert 1 < d < sp.n and sp.n % d == 0
            assert d in {sp.p, sp.q}

    def test_deterministic_trace(self):
        n = 1000003 * 1000033
        a = pollard_factor(n, RhoConfig(seed=99))
        b = pollard_factor(n, RhoConfig(seed=99))
        assert a == b  # the factor and every trace counter

    def test_trace_restart_invariant(self):
        rng = random.Random(8)
        for _ in range(20):
            sp = random_semiprime(10, 12, 22, rng)
            d, trace = pollard_factor(sp.n, RhoConfig(seed=3), budget_seconds=10.0)
            factor, want, walks = per_step_pollard(sp.n, 3, pollard.MAX_RESTARTS)
            assert (d, trace.iterations, trace.restarts) == (factor, want.iterations, want.restarts)
            if walks:
                assert trace.restarts == len(walks) - 1

    def test_budget_exceeded(self):
        # 60-bit semiprime with balanced factors cannot finish in 1 microsecond
        sp = random_semiprime(30, 30, 60, random.Random(12))
        with pytest.raises(BudgetExceeded):
            pollard_factor(sp.n, RhoConfig(seed=1), 1e-6)

    def test_500_semiprimes_within_budget(self):
        rng = random.Random(2024)
        for _ in range(500):
            p_bits = rng.randrange(10, 21)
            q_bits = rng.randrange(10, 21)
            sp = random_semiprime(p_bits, q_bits, p_bits + q_bits, rng)
            d, _ = pollard_factor(sp.n, RhoConfig(seed=77), budget_seconds=10.0)
            assert sp.n % d == 0 and 1 < d < sp.n

    def test_iteration_scaling_with_factor_size(self):
        # median iteration count should grow with the smaller factor's size:
        # positive slope of log(median iters) against log(p bits)
        rng = random.Random(55)
        sizes = [12, 16, 20, 24]
        medians = []
        for p_bits in sizes:
            iters = []
            for _ in range(15):
                sp = random_semiprime(p_bits, 28, p_bits + 28, rng)
                _, trace = pollard_factor(sp.n, RhoConfig(seed=13), budget_seconds=30.0)
                iters.append(max(trace.iterations, 1))
            medians.append(statistics.median(iters))
        xs = [math.log(s) for s in sizes]
        ys = [math.log(m) for m in medians]
        mean_x, mean_y = statistics.fmean(xs), statistics.fmean(ys)
        slope = sum((x - mean_x) * (y - mean_y) for x, y in zip(xs, ys)) / sum(
            (x - mean_x) ** 2 for x in xs
        )
        assert slope > 0, medians


class TestBatchedWalkMatchesPerStep:
    """The batched gcd must end every walk where a gcd after each step would."""

    @given(st.integers(16, 56), st.integers(3, 28), st.integers(0, 2**32), st.integers(0, 2**32))
    @settings(max_examples=60, deadline=None)
    def test_property_random_semiprimes(self, n_bits, p_bits, draw_seed, seed):
        p_bits = min(p_bits, n_bits // 2)
        sp = random_semiprime(p_bits, n_bits - p_bits, n_bits, random.Random(draw_seed))
        assert_matches_oracle(sp.n, seed)

    @pytest.mark.parametrize(
        "n, seed, steps",
        [
            (430915087, 6, 100),  # inside the first warm-up batch
            (27289493941, 3, 128),  # last step of the first warm-up batch
            (662553491, 6, 129),  # first step of the second warm-up batch
            (123469610071, 2, 256),  # last warm-up step
            (10317018809, 5, 257),  # first step of the first product batch
            (64237826911, 6, 300),  # mid-batch
            (32169910649, 5, 384),  # last step of the first product batch
            (18410469613, 2, 385),  # first step of the second product batch
        ],
    )
    def test_walk_ends_at_pinned_step(self, n, seed, steps):
        walks = assert_matches_oracle(n, seed)
        assert len(walks) == 1
        assert walks[0][0] == steps
        assert 1 < walks[0][1] < n

    def test_restart_after_collision_in_a_product_batch(self, monkeypatch):
        n = 230940722119
        assert assert_matches_oracle(n, 6) == [(735, n), (243, 491653)]
        monkeypatch.setattr(pollard, "MAX_RESTARTS", 1)
        assert assert_matches_oracle(n, 6) == [(735, n)]

    def test_both_primes_in_one_batch_replay_finds_proper_factor(self):
        # Both primes of n collide in steps 257..384, so the batch product is
        # 0 (mod n), yet the first step with gcd != 1 exposes one prime alone.
        n, seed = 3947527433, 0
        diffs = floyd_differences(n, seed, 3 * BATCH)
        first = next(i for i, v in enumerate(diffs) if math.gcd(v, n) != 1)
        assert first + 1 == 282 and math.gcd(diffs[first], n) == 64577
        assert math.prod(diffs[2 * BATCH :]) % n == 0
        assert assert_matches_oracle(n, seed) == [(282, 64577)]

    def test_deadline_polled_every_batch(self):
        sp = random_semiprime(30, 30, 60, random.Random(12))
        with pytest.raises(BudgetExceeded) as info:
            pollard_factor(sp.n, RhoConfig(seed=1), 1e-6)
        trace = info.value.trace
        # the first poll, after the first batch, already finds the deadline past
        assert trace.iterations == BATCH
        assert trace.restarts == 0


class TestStoredValuesMatchPerStep:
    """Walks that take the tortoise's values from the hare's stored ones end
    where the per-step walk does, on either side of the cap on stored steps."""

    # (n, seed, steps) of single walks ending in product batches 3 to 6 and
    # well past them
    WALKS = [
        (64237826911, 6, 300),
        (2347597598917, 0, 512),
        (3141697634441, 8, 513),
        (2309034328499, 5, 640),
        (2862716585623, 0, 641),
        (4159593268849, 6, 768),
        (3954169575859, 6, 3449),
    ]

    # with the cap at k batches, the deque fills from the first step, batch
    # k + 1 is the first past the cap, and the 3449-step walk runs 22 or more
    # batches past it
    @pytest.mark.parametrize("cap_batches", [2, 3, 4, 5])
    def test_walks_across_the_cap(self, monkeypatch, cap_batches):
        monkeypatch.setattr(pollard, "REUSE_STEPS", cap_batches * BATCH)
        for n, seed, steps in self.WALKS:
            walks = assert_matches_oracle(n, seed)
            assert [s for s, _ in walks] == [steps]

    def test_restart_starts_a_fresh_deque(self):
        # both walks pass the warm-up, and the first ends below the cap, so a
        # deque carried into the second walk would feed its tortoise
        n = 2232267105001
        assert assert_matches_oracle(n, 6) == [(1907, n), (405, 1020583)]

    def test_stored_values_stop_at_the_cap(self, monkeypatch, expire_after):
        # 66 batches, 58 of them past a cap of 8: the peak is that of the
        # 8 * BATCH + 1 values stored at the cap, each an int the size of n
        # and a deque slot, where a deque still filling would hold 8x as many
        monkeypatch.setattr(pollard, "REUSE_STEPS", 8 * BATCH)
        sp = random_semiprime(64, 64, 128, random.Random(3))
        expire_after(66)  # the Deadline's read and 65 polls see real time
        tracemalloc.start()
        try:
            with pytest.raises(BudgetExceeded) as info:
                pollard_factor(sp.n, RhoConfig(seed=0), 60.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert info.value.trace.iterations == 66 * BATCH
        assert peak < 2 * 8 * BATCH * (sys.getsizeof(sp.n) + 8)


class TestWorkMatchesCycleOracle:
    """Iterations and restarts follow from (p, q, seed) through the cycle
    structure of x -> x*x + c mod each prime, not from the walk on n."""

    @staticmethod
    def check(sp, seed):
        factor, iterations, restarts = rho_work_oracle(sp.p, sp.q, seed)
        if factor is None:
            with pytest.raises(Exhausted) as info:
                pollard_factor(sp.n, RhoConfig(seed=seed))
            trace = info.value.trace
        else:
            d, trace = pollard_factor(sp.n, RhoConfig(seed=seed))
            assert d == factor
        assert (trace.iterations, trace.restarts) == (iterations, restarts), sp

    def test_balanced_40_bit(self):
        rng = random.Random(40)
        for seed in range(200):
            self.check(random_semiprime(20, 20, 40, rng), seed)

    # the oracle walks mod the larger prime too, so q stays below 2**30
    @pytest.mark.parametrize("p_bits, q_bits", [(8, 28), (12, 28), (14, 30), (16, 24)])
    def test_unbalanced(self, p_bits, q_bits):
        rng = random.Random(p_bits * 100 + q_bits)
        for seed in range(10):
            self.check(random_semiprime(p_bits, q_bits, p_bits + q_bits, rng), seed)

    def test_restart(self):
        # seed 6 collides mod both primes at step 735, then finds 491653
        sp = make_semiprime(491653, 230940722119 // 491653)
        assert rho_work_oracle(sp.p, sp.q, 6) == (491653, 735 + 243, 1)
        self.check(sp, 6)


class TestBudgetValidation:
    @pytest.mark.parametrize("budget", [float("nan"), 0.0, -1.0])
    def test_non_positive_or_nan_budget_rejected(self, budget):
        with pytest.raises(ValueError, match="budget_seconds must be positive"):
            pollard_factor(8051, RhoConfig(seed=7), budget)
