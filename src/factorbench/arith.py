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

# (bound, bases): the strong test to `bases` decides every n < bound exactly,
# skipping a base that n divides, and each odd bound is itself a strong
# pseudoprime to its tier's bases. The small sets are Jaeschke's (Math. Comp.
# 61, 1993); those from 55245642489451 to 2**64 are the record sets with base
# 2, proven against Feitsma and Galway's list of the base-2 strong
# pseudoprimes below 2**64 under that skip rule; the last two are psi_12 and
# psi_13 of OEIS A014233 with the first 12 and 13 primes.
_TIERS = (
    (1373653, (2, 3)),
    (9080191, (31, 73)),
    (4759123141, (2, 7, 61)),
    (1122004669633, (2, 13, 23, 1662803)),
    (55245642489451, (2, 141889084524735, 1199124725622454117, 11096072698276303650)),
    (
        7999252175582851,
        (2, 4130806001517, 149795463772692060, 186635894390467037, 3967304179347715805),
    ),
    (
        585226005592931977,
        (
            2,
            123635709730000,
            9233062284813009,
            43835965440333360,
            761179012939631437,
            1263739024124850375,
        ),
    ),
    (2**64, (2, 325, 9375, 28178, 450775, 9780504, 1795265022)),
    (318665857834031151167461, (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)),
    (3317044064679887385961981, (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)),
)
_BOUNDS = tuple(bound for bound, _ in _TIERS)


def _sieve_upto(bound: int) -> list[int]:
    """Every prime up to bound >= 2."""
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
    """Whether odd n >= 5 is a strong probable prime to every base in `bases`
    that n does not divide.

    n - 1 = d * 2**s is split once, and the loop stops at the first base that
    proves n composite, so a lazy iterable is drawn from only that far.
    """
    m = n - 1
    s = (m & -m).bit_length() - 1
    d = m >> s
    for a in bases:
        if a % n == 0:
            continue
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
    is prime. Then one strong-test loop: below psi_13 to the bases of the
    first _TIERS entry whose bound exceeds n, skipping a base that n divides:

    - below 1373653: 2, 3; below 9080191: 31, 73; below 4759123141: 2, 7, 61;
      below 1122004669633: 2, 13, 23, 1662803 (Jaeschke 1993);
    - below 55245642489451, 7999252175582851, 585226005592931977 and 2**64:
      4, 5, 6 and 7 bases, the record sets that contain base 2, proven
      against the base-2 strong pseudoprimes below 2**64 (Feitsma and Galway);
    - below psi_12 and psi_13 (OEIS A014233): the first 12 and 13 primes.

    Above psi_13, 40 witnesses drawn from random.Random(n), so calls agree,
    wrong with probability at most 4**-40.
    """
    if n < _SMALL_LIMIT:
        return n in _SMALL_PRIME_SET
    if not (n & 1 and n % 3 and n % 5 and n % 7 and n % 11 and n % 13):
        return False
    if math.gcd(n, _SMALL_PRODUCT) != 1:
        return False
    if n < _BOUNDS[-1]:
        return n < _SMALL_SQUARE or _strong_tests(n, _TIERS[bisect_right(_BOUNDS, n)][1])
    rng = random.Random(n)
    return _strong_tests(n, (rng.randrange(2, n - 1) for _ in range(40)))
