import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from factorbench.arith import (
    FIRST_TEN_PRIMES,
    _miller_rabin,
    first_ten_primes,
    is_probable_prime,
    sqrt_mod_prime,
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

    def test_matches_brute_force_below_300(self):
        for p in range(2, 300):
            if not trial_division_is_prime(p):
                continue
            for c in range(p):
                assert sqrt_mod_prime(c, p) == tuple(x for x in range(p) if x * x % p == c)

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

    def test_rounds_validated(self):
        with pytest.raises(ValueError):
            is_probable_prime(17, rounds=0)

    def test_agrees_with_trial_division_below_1e5(self):
        for n in range(100_000):
            assert is_probable_prime(n) == trial_division_is_prime(n), n

    def test_miller_rabin_core_agrees_with_trial_division(self):
        # exercise the witness loop itself, bypassing the small-number shortcut
        rng = random.Random(5)
        for n in range(5, 30_000, 2):
            assert _miller_rabin(n, 12, rng) == trial_division_is_prime(n), n

    def test_large_known_values(self):
        assert is_probable_prime(2**61 - 1) is True  # Mersenne prime
        assert is_probable_prime(2**67 - 1) is False  # classic composite
        assert is_probable_prime(3425927) and is_probable_prime(3430517)

    def test_explicit_generator_accepted(self):
        rng = random.Random(42)
        assert is_probable_prime(10**9 + 7, rng=rng) is True


class TestFirstTenPrimes:
    def test_definition(self):
        primes = first_ten_primes()
        assert len(primes) == 10
        assert primes[0] == 2 and primes[-1] == 29
        assert primes == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]

    def test_product(self):
        assert math.prod(first_ten_primes()) == 6469693230

    def test_all_pass_primality(self):
        assert all(is_probable_prime(p) for p in FIRST_TEN_PRIMES)

    def test_fresh_list(self):
        a = first_ten_primes()
        a.append(31)
        assert first_ten_primes() == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]
