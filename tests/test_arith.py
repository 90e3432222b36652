import itertools
import math
import random
from bisect import bisect_right

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from factorbench import arith
from factorbench.arith import (
    _SMALL_PRIMES,
    _TIERS,
    FIRST_TEN_PRIMES,
    _strong_tests,
    is_probable_prime,
    sqrt_mod_prime,
)
from factorbench.pollard import RhoConfig, pollard_factor

# psi_k for k = 1..13 (OEIS A014233; Jaeschke 1993, Sorenson and Webster 2015):
# the least odd composite that is a strong pseudoprime to each of the first k
# primes as bases. The first k primes therefore decide every n < psi_k exactly.
PSI = (
    2047,
    1373653,
    25326001,
    3215031751,
    2152302898747,
    3474749660383,
    341550071728321,
    341550071728321,
    3825123056546413051,
    3825123056546413051,
    3825123056546413051,
    318665857834031151167461,
    3317044064679887385961981,
)

# (tier bound, base, witness) for every base of the tiers up to 2**64: an odd
# composite below the bound that every other base of the tier passes and
# this base rejects, so no base of a tier can be dropped. Each is the least
# found among the odd n below 9080191 and the products (a*m + 1)(b*m + 1)
# of two primes with m below 10**8 and a < b <= 5 or (a, b) = (1, 6).
BASE_WITNESSES = (
    (1373653, 2, 121),
    (1373653, 3, 2047),
    (9080191, 31, 65),
    (9080191, 73, 15),
    (4759123141, 2, 79381),
    (4759123141, 7, 916327),
    (4759123141, 61, 314821),
    (1122004669633, 2, 97071211),
    (1122004669633, 13, 4033),
    (1122004669633, 23, 16705021),
    (1122004669633, 1662803, 2510569),
    (55245642489451, 2, 141618181),
    (55245642489451, 141889084524735, 100943201),
    (55245642489451, 1199124725622454117, 112828801),
    (55245642489451, 11096072698276303650, 69485281),
    (7999252175582851, 2, 1590751),
    (7999252175582851, 4130806001517, 22761564841),
    (7999252175582851, 149795463772692060, 36445786081),
    (7999252175582851, 186635894390467037, 14794081),
    (7999252175582851, 3967304179347715805, 16571869921),
    (585226005592931977, 2, 1141262573701),
    (585226005592931977, 123635709730000, 1792636095421),
    (585226005592931977, 9233062284813009, 745493761),
    (585226005592931977, 43835965440333360, 20340216934381),
    (585226005592931977, 761179012939631437, 2229468697),
    (585226005592931977, 1263739024124850375, 3517128833653),
    (2**64, 2, 1921077350011),
    (2**64, 325, 1411807385341),
    (2**64, 9375, 443538368977861),
    (2**64, 28178, 4341937413061),
    (2**64, 450775, 5517315475561),
    (2**64, 9780504, 3933464309633),
    (2**64, 1795265022, 107528788110061),
)


def trial_division_is_prime(n):
    """Oracle: exact primality by trial division."""
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def random_witnesses(n, rounds, rng):
    """The lazy witness draw is_probable_prime makes above psi_13."""
    return (rng.randrange(2, n - 1) for _ in range(rounds))


@pytest.fixture
def generators(monkeypatch):
    """Replace the random.Random that is_probable_prime makes with a subclass
    that records its seed and every randrange draw; returns the list of
    (seed, draws) of each generator made."""
    made = []

    class Recording(random.Random):
        def __init__(self, seed):
            super().__init__(seed)
            self.draws = []
            made.append((seed, self.draws))

        def randrange(self, *args):
            value = super().randrange(*args)
            self.draws.append(value)
            return value

    monkeypatch.setattr(arith.random, "Random", Recording)
    return made


def strong_pseudoprime_to(n, a):
    """Oracle: the strong test of odd n to base a, written out independently."""
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    return pow(a, d, n) == 1 or any(pow(a, d << r, n) == n - 1 for r in range(s))


def first_primes_say_prime(n):
    """Oracle, exact below psi_13: the strong test of n to the first k primes,
    k the fewest that PSI proves enough for n."""
    primes = _SMALL_PRIMES[: bisect_right(PSI, n) + 1]
    if n < 2 or any(n % p == 0 for p in primes):
        return n in primes
    return all(strong_pseudoprime_to(n, a) for a in primes)


def prime_factors(n):
    """n's prime factors with multiplicity, split by pollard_factor and each
    proven prime by the first-primes oracle."""
    if n == 1:
        return []
    if first_primes_say_prime(n):
        return [n]
    d, _ = pollard_factor(n, RhoConfig(seed=0))
    return prime_factors(d) + prime_factors(n // d)


def liar_shaped_after(p):
    """The first p * (2p - 1) from p on with both factors prime: about a
    quarter of all bases are strong liars to such a product, so its strong
    tests often get past base 2."""
    while not (first_primes_say_prime(p) and first_primes_say_prime(2 * p - 1)):
        p += 1
    return p * (2 * p - 1)


class TestSqrtModPrime:
    def test_examples(self):
        assert sqrt_mod_prime(2, 7) == (3, 4)
        assert sqrt_mod_prime(3, 7) == ()
        assert sqrt_mod_prime(14, 7) == (0,)
        assert sqrt_mod_prime(1, 2) == (1,)
        assert sqrt_mod_prime(10, 13) == (6, 7)  # 13 = 1 (mod 4): the Tonelli-Shanks branch

    def test_modulus_validated(self):
        with pytest.raises(ValueError):
            sqrt_mod_prime(1, 1)

    @pytest.mark.parametrize(
        "c, p",
        [
            (1, 9),  # no z in [2, 9) has z**4 = -1 (mod 9)
            (16, 85),  # after one step, t = 69 is not 1 and m = 1 leaves no i
        ],
    )
    def test_composite_modulus_detected(self, c, p):
        # each Tonelli-Shanks guard against a composite p = 1 (mod 4)
        with pytest.raises(ValueError, match=f"{p} is not a prime"):
            sqrt_mod_prime(c, p)

    def test_matches_brute_force_below_300(self):
        for p in range(2, 300):
            if not trial_division_is_prime(p):
                continue
            for c in range(p):
                assert sqrt_mod_prime(c, p) == tuple(x for x in range(p) if x * x % p == c)

    def test_matches_brute_force_below_1e4_at_random_c(self):
        # a residue and a random c for every prime: p = 3 (mod 4) takes the
        # direct root c**((p + 1) / 4), which must also reject non-residues
        rng = random.Random(7)
        for p in filter(trial_division_is_prime, range(2, 10**4)):
            for c in (rng.randrange(p) ** 2 % p, rng.randrange(p)):
                assert sqrt_mod_prime(c, p) == tuple(x for x in range(p) if x * x % p == c), (c, p)

    @given(st.integers(0, 10**18), st.sampled_from([1000003, 998244353]))
    @settings(max_examples=200)
    def test_large_primes(self, c, p):
        # 1000003 = 3 (mod 4); 998244353 = 119 * 2**23 + 1 takes the longest Tonelli-Shanks chain
        roots = sqrt_mod_prime(c, p)
        assert all(r * r % p == c % p for r in roots)
        if c % p == 0:
            assert roots == (0,)
        else:
            assert len(roots) == (2 if pow(c, (p - 1) // 2, p) == 1 else 0)


class TestIsProbablePrime:
    def test_examples(self):
        assert is_probable_prime(613) is True
        assert is_probable_prime(400289) is False  # 613 * 653
        assert 613 * 653 == 400289
        assert is_probable_prime(1) is False
        assert is_probable_prime(0) is False
        assert is_probable_prime(2) is True

    def test_agrees_with_trial_division_below_1e5(self):
        for n in range(100_000):
            assert is_probable_prime(n) == trial_division_is_prime(n), n

    def test_miller_rabin_core_agrees_with_trial_division(self):
        # exercise the witness loop itself, bypassing the small-number shortcut
        rng = random.Random(5)
        for n in range(5, 30_000, 2):
            assert _strong_tests(n, random_witnesses(n, 12, rng)) == trial_division_is_prime(n), n

    def test_strong_tests_skip_a_base_n_divides(self):
        # pow(a, d, n) would be 0 and call the prime 1000003 composite
        assert _strong_tests(1000003, (2, 5 * 1000003, 3))
        assert not _strong_tests(1000003 * 2000003, (1000003 * 2000003, 2))

    def test_large_known_values(self):
        assert is_probable_prime(2**61 - 1) is True  # Mersenne prime
        assert is_probable_prime(2**67 - 1) is False  # classic composite
        assert is_probable_prime(3425927) and is_probable_prime(3430517)


def random_witnesses_say_prime(n):
    """Oracle for odd n >= 5 beyond trial division: 40 random strong tests."""
    return _strong_tests(n, random_witnesses(n, 40, random.Random(n)))


class TestExactBelowPsi13:
    def test_table_is_a014233(self):
        # psi_k is a strong pseudoprime to each of the first k prime bases
        for k, psi in enumerate(PSI, start=1):
            assert _strong_tests(psi, _SMALL_PRIMES[:k]), psi
            assert not random_witnesses_say_prime(psi), psi

    def test_every_psi_rejected(self):
        # each psi_k sits on a tier edge: the first k bases alone would pass it
        for psi in PSI:
            assert is_probable_prime(psi) is False, psi

    def test_known_primes_across_the_tiers(self):
        for n in (
            999983,  # largest prime below 10**6, the gcd screen's reach
            1000003,
            2**31 - 1,
            10**12 + 39,
            2**61 - 1,
            10**18 + 9,
            10**24 + 7,  # between psi_12 and psi_13: all 13 bases
            2**89 - 1,  # above psi_13: random witnesses
        ):
            assert is_probable_prime(n) is True, n

    def test_agrees_with_random_witnesses_around_every_edge(self):
        for edge in sorted({*PSI[1:], 10**6, *(bound for bound, _ in _TIERS)}):
            primes = 0
            for n in range((edge - 300) | 1, edge + 300, 2):
                expected = random_witnesses_say_prime(n)
                assert is_probable_prime(n) == expected, n
                primes += expected
            assert primes > 0, edge

    def test_every_tier_bound_is_a_liar_and_rejected(self):
        # each odd bound is a composite that every base of its tier passes, so
        # its tier can reach no further; 2**64 is where the list the record
        # sets were proven against ends, not their least liar
        for bound, bases in _TIERS:
            if bound < 2**64:
                d, _ = pollard_factor(bound, RhoConfig(seed=0))
                assert 1 < d < bound and bound % d == 0, bound
                assert all(strong_pseudoprime_to(bound, a) for a in bases), bound
            assert is_probable_prime(bound) is False, bound
        # above 2**64 the tiers are A014233's
        assert _TIERS[-3][0] == 2**64
        assert _TIERS[-2:] == ((PSI[11], _SMALL_PRIMES[:12]), (PSI[12], _SMALL_PRIMES[:13]))

    def test_every_base_of_a_tier_is_needed(self):
        # a dropped or mistyped base leaves the table and the tiers apart
        assert [(bound, a) for bound, a, _ in BASE_WITNESSES] == [
            (bound, a) for bound, bases in _TIERS if bound <= 2**64 for a in bases
        ]
        tiers = dict(_TIERS)
        for bound, a, n in BASE_WITNESSES:
            assert n % 2 == 1 and n < bound and len(prime_factors(n)) > 1, n
            assert _strong_tests(n, [b for b in tiers[bound] if b != a]), (a, n)
            assert not _strong_tests(n, (a,)), (a, n)

    def test_every_divisor_of_a_base_in_its_tier(self):
        # n skips a base it divides and rests on its tier's other bases
        checked = set()
        for low, (bound, bases) in zip((0, *(bound for bound, _ in _TIERS)), _TIERS):
            for a in bases:
                divisors = {1}
                for p in prime_factors(a):
                    divisors |= {d * p for d in divisors}
                for d in sorted(divisors):
                    if low <= d < bound:
                        assert is_probable_prime(d) == first_primes_say_prime(d), (a, d)
                        checked.add(d)
        # 3075593**2 divides 141889084524735 and passes the gcd screen
        assert 3075593**2 in checked and is_probable_prime(3075593**2) is False
        assert len(checked) == 178

    @given(
        st.one_of(
            st.integers(20, 64)
            .flatmap(lambda b: st.integers(2 ** (b - 1), 2**b - 1))
            .map(lambda n: n | 1),
            # p * (2p - 1) of 21 to 64 bits
            st.integers(2**10, 3 * 10**9).map(liar_shaped_after),
        )
    )
    @settings(max_examples=300)
    def test_tiers_agree_with_first_primes(self, n):
        assert is_probable_prime(n) == first_primes_say_prime(n)

    @given(
        st.integers(20, PSI[-1].bit_length())
        .flatmap(lambda b: st.integers(max(2 ** (b - 1), 10**6), min(2**b, PSI[-1]) - 2))
        .map(lambda n: n | 1)
    )
    @settings(max_examples=300)
    def test_agrees_with_random_witnesses_below_psi13(self, n):
        assert is_probable_prime(n) == random_witnesses_say_prime(n)

    def test_generator_drawn_from_only_above_psi13(self, generators):
        for n in (2**61 - 1, 10**24 + 7, PSI[-1] - 2):
            is_probable_prime(n)
        assert generators == []
        assert is_probable_prime(2**89 - 1)
        assert [(seed, len(draws)) for seed, draws in generators] == [(2**89 - 1, 40)]

    def test_witnesses_drawn_lazily_above_psi13(self, generators):
        # p * (2p - 1) with both prime and p = 3 (mod 4): about a quarter of
        # all bases are strong liars, so some such n need a second or third
        # witness to reject them
        primes = (p for p in itertools.count(2**41 + 3, 4) if is_probable_prime(p))
        pairs = (p for p in primes if is_probable_prime(2 * p - 1))
        needed = []
        for p in itertools.islice(pairs, 40):
            n = p * (2 * p - 1)
            assert n > PSI[-1]
            generators.clear()
            assert is_probable_prime(n) is False
            [(seed, draws)] = generators
            assert seed == n
            # every witness drawn but the last is a liar: the draw stops at
            # the first witness that rejects n
            liars = [strong_pseudoprime_to(n, a) for a in draws]
            assert liars == [True] * (len(draws) - 1) + [False], n
            needed.append(len(draws))
        assert max(needed) > 1
        # a prime draws every witness; a composite with a small factor none
        generators.clear()
        assert is_probable_prime(2**107 - 1) is True
        assert [(seed, len(draws)) for seed, draws in generators] == [(2**107 - 1, 40)]
        generators.clear()
        assert is_probable_prime(3 * (2**89 - 1)) is False
        assert generators == []


class TestFirstTenPrimes:
    def test_definition(self):
        primes = FIRST_TEN_PRIMES
        assert len(primes) == 10
        assert primes[0] == 2 and primes[-1] == 29
        assert primes == (2, 3, 5, 7, 11, 13, 17, 19, 23, 29)

    def test_product(self):
        assert math.prod(FIRST_TEN_PRIMES) == 6469693230

    def test_all_pass_primality(self):
        assert all(is_probable_prime(p) for p in FIRST_TEN_PRIMES)
