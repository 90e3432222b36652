"""Arbitrary-precision number-theory primitives shared by every algorithm.

All functions are pure and operate on Python's native big integers; nothing
here touches global RNG state.
"""

from __future__ import annotations

import itertools
import math
import random
from bisect import bisect_right
from collections.abc import Iterable

# the ten smallest primes, which pollard_factor trial-divides by before its walk
FIRST_TEN_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29)

# is_probable_prime screens every n >= _SMALL_LIMIT with one gcd against the
# product of the primes below _SMALL_LIMIT, which alone decides n < _SMALL_SQUARE.
_SMALL_LIMIT = 1000

# psi_k for k = 1..13 (OEIS A014233; Jaeschke 1993, Sorenson and Webster 2015):
# the least odd composite that is a strong pseudoprime to each of the first k
# primes as bases. The first k primes therefore decide every n < psi_k exactly.
_PSI = (
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


def _sieve_upto(bound: int) -> list[int]:
    if bound < 2:
        return []
    flags = bytearray(b"\x01") * (bound + 1)
    flags[0] = flags[1] = 0
    for p in range(2, math.isqrt(bound) + 1):
        if flags[p]:
            flags[p * p :: p] = b"\x00" * ((bound - p * p) // p + 1)
    return list(itertools.compress(range(bound + 1), flags))


_SMALL_PRIMES = tuple(_sieve_upto(_SMALL_LIMIT))
_SMALL_PRIME_SET = frozenset(_SMALL_PRIMES)
_SMALL_PRODUCT = math.prod(_SMALL_PRIMES)
_SMALL_SQUARE = _SMALL_LIMIT * _SMALL_LIMIT
# _PSI_BASES[i] is the first i + 1 primes, enough bases for every n < _PSI[i]
_PSI_BASES = tuple(_SMALL_PRIMES[: k + 1] for k in range(len(_PSI)))


def sqrt_mod_prime(c: int, p: int) -> tuple[int, ...]:
    """All x in [0, p) with x*x = c (mod p), ascending, for prime p.

    One root when p = 2 or c = 0 (mod p), none when c is a non-residue,
    otherwise the pair r, p - r: r = c**((p + 1) / 4) when p = 3 (mod 4),
    whose square is c or -c, else by Tonelli-Shanks.
    """
    if p < 2:
        raise ValueError("p must be a prime")
    c %= p
    if c == 0 or p == 2:
        return (c,)
    if p & 3 == 3:
        r = pow(c, (p + 1) >> 2, p)
        if r * r % p != c:
            return ()
    elif pow(c, (p - 1) >> 1, p) != 1:
        return ()
    else:
        r = _tonelli_shanks(c, p)
    return (r, p - r) if r < p - r else (p - r, r)


def _tonelli_shanks(c: int, p: int) -> int:
    """A root of the quadratic residue c mod prime p = 1 (mod 4)."""
    s = ((p - 1) & (1 - p)).bit_length() - 1
    q = (p - 1) >> s
    z = next((z for z in range(2, p) if pow(z, (p - 1) >> 1, p) == p - 1), None)
    if z is None:
        raise ValueError(f"{p} is not a prime")
    m, w, t, r = s, pow(z, q, p), pow(c, q, p), pow(c, (q + 1) >> 1, p)
    while t != 1:
        # least i with t**(2**i) = 1; for prime p it is below m, so m falls each step
        i, t2 = 0, t
        while t2 != 1:
            t2 = t2 * t2 % p
            i += 1
            if i == m:
                raise ValueError(f"{p} is not a prime")
        f = pow(w, 1 << (m - i - 1), p)
        m, w = i, f * f % p
        t, r = t * w % p, r * f % p
    return r


def _strong_tests(n: int, bases: Iterable[int]) -> bool:
    """Whether odd n >= 5 is a strong probable prime to every base in `bases`.

    n - 1 = d * 2**s is split once, and the loop stops at the first base that
    proves n composite, so a lazy iterable is drawn from only that far.
    """
    m = n - 1
    s = (m & -m).bit_length() - 1
    d = m >> s
    for a in bases:
        x = pow(a, d, n)
        if x != 1 and x != m:
            for _ in range(s - 1):
                x = x * x % n
                if x == m:
                    break
            else:
                return False
    return True


def is_probable_prime(n: int) -> bool:
    """Primality test, exact for every n below psi_13 (about 3.3e24, 81.5 bits).

    Cheapest screen first: a lookup among the primes below _SMALL_LIMIT, six
    word-sized remainders (by 2, 3, 5, 7, 11 and 13), then one gcd with the
    product of the primes below _SMALL_LIMIT, after which n < _SMALL_SQUARE
    is prime. Then one strong-test loop: below psi_13 to the first k primes,
    the fewest that _PSI proves enough for n; above it to 40 witnesses
    drawn from random.Random(n), so calls agree, wrong with probability at
    most 4**-40.
    """
    if n < _SMALL_LIMIT:
        return n in _SMALL_PRIME_SET
    if not (n & 1 and n % 3 and n % 5 and n % 7 and n % 11 and n % 13):
        return False
    if math.gcd(n, _SMALL_PRODUCT) != 1:
        return False
    if n < _PSI[-1]:
        return n < _SMALL_SQUARE or _strong_tests(n, _PSI_BASES[bisect_right(_PSI, n)])
    rng = random.Random(n)
    return _strong_tests(n, (rng.randrange(2, n - 1) for _ in range(40)))
