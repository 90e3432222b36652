"""Basic quadratic sieve: factor base, relation collection, matrix step,
congruence-of-squares extraction, and the bound/window retry loop.

Candidates b = ceil(sqrt(n)), ceil(sqrt(n))+1, ... give a = b*b - n, the
basic sieve's polynomial Q(b); the ones whose a factors completely over the
prime base become relations. A subset of relations whose exponent parities
cancel has a product of a values that is a perfect square, so x = prod b and
y = isqrt(prod a) satisfy x*x = y*y (mod n), and gcd(x-y, n) then splits n
unless the congruence is degenerate. When no split falls out, the smooth
bound and the scan window both grow by fixed increments and the process
repeats.

`collect_relations` is the plain reference scan for one (base, window)
setting: it trial-divides every candidate by every base prime. `qs_factor`
runs the retry loop on top of `_RelationScanner`, a root-indexed sieve by
bit credits kept between rounds: Pomerance's log approximation, made exact
by confirming every candidate it flags. Each base prime's square roots of
n are found once, when it is admitted, and lifted to its powers, so each
power visits only the candidates whose a it divides and credits
ceil(log2 p) bits off a one-byte count per candidate; past its last
sieved power, a prime's hit takes the rest of its valuation of a. The
sieved region grows in whole blocks, and every root is one entry in a
bucket per block (the segmented bucket sieve of Aoki and Ueda), so a
round's work follows the hits in its new blocks and of its new primes,
not the size of the base. A candidate whose count reaches 0 is confirmed
by exact division, in the first round whose window covers it, and few
that reach 0 are not relations. A round confirms only what it can have
changed: the candidates its new primes completed below the last window,
noted as the walk makes them, and the window's new part, so it never
rescans the window. The per-round relation sets are identical to fresh
reference scans (the tests check this), only far cheaper. The sieve keeps
each relation as just its candidate index, which gives b and a:
extraction needs nothing more, and no mask or exponent vector is kept.

The matrix step is incremental as well, and shares the confirmation
loop. One `XorBasis` lives for the whole call; each round reduces only
the relations that are new in it, and only the dependencies those new
rows complete are tried. Sending a dependency to x/y mod n maps its null
space homomorphically into the square roots of 1, so a round splits n
iff some vector of a null-space basis does, and the basis vectors of
earlier rounds were all tried and found trivial. Rounds to success are
therefore those of re-running `gf2.eliminate` on every relation every
round, which stays the reference. The division that confirms a relation
also gives its parity mask, the bit of each base prime that divides a an
odd number of times, which is reduced at once and kept nowhere. Once a
dependency splits n, the round only confirms the rest of its window, so
the relations after it are counted but never reduced.
"""
from __future__ import annotations

import bisect
import itertools
import math
from collections import defaultdict
from collections.abc import Iterator
from dataclasses import dataclass

from .arith import _sieve_upto, is_probable_prime, sqrt_mod_prime
from .errors import Deadline, Exhausted, NotComposite
from .gf2 import XorBasis
from .primegen import check_n
# not called here: the traced benchmark (layerbench) wraps sieve.eliminate by name
from .gf2 import eliminate  # noqa: F401


@dataclass(frozen=True)
class FactorBase:
    """All primes up to and including the smooth bound, ascending."""

    primes: tuple[int, ...]


@dataclass(frozen=True)
class Relation:
    """One candidate b with a = b*b - n fully smooth over the base."""

    b: int
    a: int
    exponents: tuple[int, ...]

    @property
    def parity(self) -> tuple[int, ...]:
        """The exponent vector mod 2."""
        return tuple(e & 1 for e in self.exponents)


# What qs_factor adds to the smooth bound and to the scan window after each
# fruitless round.
B_INCREMENT = 10
M_INCREMENT = 100
# The largest first-round bound and window. _primes_upto re-sieves the prime
# table with no deadline poll, and the window's candidates are held in
# memory, so larger ones would overrun a budget or grow memory unchecked.
MAX_B_BOUND = MAX_M_COUNT = 10**6


@dataclass(frozen=True)
class QsParams:
    """The first round's smooth bound and scan window, each at most 10**6,
    and the round cap; each later round widens both by B_INCREMENT and
    M_INCREMENT."""

    b_bound: int = 10
    m_count: int = 100
    max_rounds: int = 500

    def __post_init__(self):
        if self.b_bound < 2:
            raise ValueError("b_bound must be >= 2")
        if self.b_bound > MAX_B_BOUND:
            raise ValueError(f"b_bound must be <= {MAX_B_BOUND}")
        if self.m_count < 1:
            raise ValueError("m_count must be >= 1")
        if self.m_count > MAX_M_COUNT:
            raise ValueError(f"m_count must be <= {MAX_M_COUNT}")
        if self.max_rounds < 1:
            raise ValueError("max_rounds must be >= 1")


@dataclass
class QsTrace:
    """Counters for one qs_factor call. `final_b` and `final_m` are the
    last round's smooth bound and scan window, None until a round runs."""

    rounds: int = 0
    relations_found: int = 0
    dependencies_tried: int = 0
    final_b: int | None = None
    final_m: int | None = None
    via_small_factor: bool = False


# Candidates per block of the scanner's sieved region, which grows a whole
# block at a time with one deadline poll per block, and per bucket of its
# walk state, which files each root under its next hit index // BLOCK; a
# walk over more candidates than this polls the deadline first. A prime's
# first power p**k >= BLOCK with k >= 2 is its flag level, the last sieved:
# at each candidate it hits, it takes p's valuation of a and credits the
# powers of p that the levels below it did not.
# 1024 was chosen when every candidate sieved past the window cost a trial
# division; now those hits are C-level credits, and 2048 walks each root
# half as often. It should not grow further: a faster sieve narrows the
# acceptance suite's rho < qs margin at 50 bits, bit difference 0, which
# read 1.31-1.47 at 1024, 1.15-1.41 at 2048 and 1.07-1.22 at 4096 (mean
# seconds, qs over rho), too near 1 to hold against timing noise; since
# flag levels credit bits instead of zeroing bytes, it reads 1.08-1.24 at
# 2048.
BLOCK = 2048
# The credit levels of a prime below this credit strided slices of the
# region; a larger prime's one credit level credits hit by hit and notes its
# base index on each candidate it divides. It bounds the trial divisions
# that confirm a flagged candidate, and find a relation's mask, to the noted
# primes and those of the 31 primes below it that have a root of n: a prime
# with none divides no a.
NOTE_MIN = 128
# Bits per base index in a candidate's note of the primes at or above
# NOTE_MIN that divide it, once each. Base indices stay far below 2**32, and
# those of such primes are above 0, so a note is 0 exactly when it is empty.
NOTE_BITS = 32
_NOTE_MASK = (1 << NOTE_BITS) - 1

# Index cuts of block 0, where a grows fastest relative to itself: each
# candidate's byte starts from the bound at the cut at or before it.
_BLOCK0_CUTS = (0, *(1 << e for e in range(BLOCK.bit_length() - 1)))
# _CREDIT[c] takes c bits off a candidate's byte, saturating at 0, so
# _CREDIT[255] zeroes it
_CREDIT = [bytes(c) + bytes(range(256 - c)) for c in range(256)]

# (limit, every prime up to limit); replaced whole, never mutated
_prime_table: tuple[int, tuple[int, ...]] = (1, ())


def _primes_upto(bound: int) -> tuple[int, ...]:
    """The shared prime table, every prime up to its limit. A bound past the
    limit first re-sieves it to max(bound, twice the limit)."""
    global _prime_table
    limit, primes = _prime_table
    if bound > limit:
        limit = max(bound, 2 * limit)
        primes = tuple(_sieve_upto(limit))
        _prime_table = limit, primes
    return primes


def build_factor_base(bound: int) -> FactorBase:
    """All primes up to the smooth bound, cut from the shared prime table."""
    if bound < 2:
        raise ValueError("bound must be >= 2")
    primes = _primes_upto(bound)
    return FactorBase(primes[: bisect.bisect_right(primes, bound)])


def smooth_decompose(a: int, fb: FactorBase) -> list[int] | None:
    """Exponent vector of a over the base, or None if a residual survives."""
    if a < 1:
        raise ValueError("a must be >= 1")
    primes = fb.primes
    exps = [0] * len(primes)
    rem = a
    for i, p in enumerate(primes):
        if rem == 1:
            return exps
        if p * p > rem:
            # the residual is prime; smooth iff it sits in the remaining base
            j = bisect.bisect_left(primes, rem, i)
            if j < len(primes) and primes[j] == rem:
                exps[j] += 1
                return exps
            return None
        while rem % p == 0:
            rem //= p
            exps[i] += 1
    return exps if rem == 1 else None


def _root_levels(n: int, p: int) -> list[tuple[int, tuple[int, ...], bool]]:
    """The progressions b = r (mod step) on which p**k divides b*b - n, for
    k = 1, 2, ... up to the flag level, the first k >= 2 with p**k >= BLOCK,
    or to the last k that has any: (step, roots r, whether k is the flag
    level), step dividing p**k. The roots of n mod q*p lift from those mod
    q = p**k: (r + t*q)**2 - n = r*r - n + 2*r*t*q (mod q*p). When p does
    not divide 2r, one t lifts r (Hensel's rule). When it does, as it does
    for every root or for none, every t lifts r or none does, and the
    progression of r mod q is kept whole."""
    levels = []
    q, step, roots = p, p, sqrt_mod_prime(n, p)
    while roots:
        flag = q > p and q >= BLOCK
        levels.append((step, roots, flag))
        if flag:
            break
        if 2 * roots[0] % p:  # odd p prime to n: the roots are r and q - r
            r = roots[0]
            r += (n - r * r) // q * pow(2 * r, -1, p) % p * q
            step, roots = q * p, tuple(sorted((r, q * p - r)))
        else:
            # every root mod q, fewer than BLOCK past k = 1, where step = q
            roots = [r + t * step for t in range(q // step) for r in roots]
            step, roots = q, tuple(r for r in roots if (r * r - n) // q % p == 0)
        q *= p
    return levels


def _log2_byte(x: int) -> int:
    """floor(log2 x) of x >= 1, clamped to a byte."""
    return min(x.bit_length() - 1, 255)


def _ceil_sqrt(n: int) -> int:
    r = math.isqrt(n)
    return r + 1 if r * r < n else r


def collect_relations(n: int, fb: FactorBase, m_count: int) -> list[Relation]:
    """Scan m_count consecutive candidates b from ceil(sqrt(n)) and keep
    those whose a = b*b - n is smooth, in scan order."""
    relations = []
    b = _ceil_sqrt(n)
    for _ in range(m_count):
        a = b * b - n
        if a != 0:
            exps = smooth_decompose(a, fb)
            if exps is not None:
                relations.append(Relation(b=b, a=a, exponents=tuple(exps)))
        b += 1
    return relations


def extract_factor(n: int, pairs: list[tuple[int, int]]) -> int | None:
    """Turn one dependency into a factor via the congruence of squares.

    `pairs` holds the dependency's (b, a) pairs, each with b*b = a (mod n).
    x is the product of the b values mod n, and y = isqrt(prod a) mod n,
    which is exact because the a values multiply to a perfect square.
    Tries gcd(x-y, n) and then gcd(x+y, n); returns None when both come out
    trivial. Raises ValueError when prod a is not a perfect square.
    """
    x = 1
    for b, _ in pairs:
        x = x * b % n
    square = math.prod(a for _, a in pairs)
    y = math.isqrt(square)
    if y * y != square:
        raise ValueError("selected relations do not multiply to a perfect square")
    y %= n
    g = math.gcd(x - y, n)
    if 1 < g < n:
        return g
    g = math.gcd(x + y, n)
    if 1 < g < n:
        return g
    return None


class _RelationScanner:
    """Root-indexed sieve by bit credits, shared across retry rounds.

    A round is two calls: `advance` sieves, and `relations` confirms the
    window. n must not be a perfect square, where every p**k would divide
    the a = 0 of candidate 0; `qs_factor` returns a square's root before it
    makes a scanner. `primes` is the factor base so far; each `advance`
    appends its round's new primes, so base indices never change. Candidate
    i has b = ceil(sqrt(n)) + i and a = b*b - n, and `need[i]` is one byte:
    the bits of a still to be credited before i is worth an exact look. It
    starts from a lower bound of floor(log2 a), clamped at 255: that of a
    block's first candidate, a rising with b, and in block 0, where a is
    small, of the candidate at each power-of-two index. p**k divides a only
    where b*b = n (mod p**k), so each prime is rooted once, in the call that
    admits it, into the levels of `_root_levels`; a prime with no root of n
    is never kept. Each level below the flag level L, the last, credits
    ceil(log2 p), that is (p - 1).bit_length(), bits to the candidates it
    hits, through a saturating `translate` table. The flag level takes p's
    valuation v of each a it hits and credits the rest of it, (v - (L - 1))
    * ceil(log2 p) bits, capped at 255. So every power of p that divides a
    credits ceil(log2 p) bits, and a byte reaches 0 only through credits.

    The sieved region, `need`'s length, grows to the first multiple of
    BLOCK at or past each call's window, in whole blocks. Every root of
    every level is one entry (next hit index, step, tag) filed in `buckets`
    under index // BLOCK. The tag is fixed when the prime is rooted: the
    prime's base index j, or ~j at its flag level. One loop walks the
    entries popped for the new blocks, and those of the new primes, from
    their next hit to the region's end, and files each again under the
    block of its first hit past the region; a new prime's entry whose first
    hit already lies past it is filed as it is, in the same turn, so every
    bucket keeps the order of a full walk. A call's work is thus the hits in
    its new blocks, not the size of the base:
    - an entry with tag j of a prime below NOTE_MIN credits one strided
      slice, in C;
    - an entry with tag j of a prime at or above NOTE_MIN, whose level 1 is
      its one credit level, credits its hits one by one, and notes j in
      `notes[i]`, NOTE_BITS bits a prime. It holds j, not the mask bit
      1 << j: kept bits would take memory quadratic in the base size;
    - an entry with tag ~j, at a flag level p**L >= BLOCK, takes p's
      valuation at each of its hits, one by one, about 2 in p**L
      candidates.

    `relations` confirms only the bytes that can have reached 0 since the
    last call confirmed its window, the first `confirmed` candidates. Each
    byte there was left nonzero, and old primes walk only new blocks, past
    it, so only a new prime's hit can zero one; the walk appends each such
    i to `fresh` as it zeroes it, hit by hit, or by searching a slice's hits
    below `confirmed`. `relations` takes those in index order, then the zero
    bytes of the window's new part, found by `need.find`, and sends each to
    `_divide` once. A cofactor of 1 makes i a relation, its byte 255: no
    later prime divides a, and old primes walk only new blocks, so nothing
    credits it again. Any other cofactor c marks a false positive, which
    needs the rounding up of log2 p to cover c's bits, so there are few. c
    is prime to the whole base so far, so the byte becomes floor(log2 c),
    which only later primes can credit. A zero byte past the window stays
    0, as credits saturate there, until the first window that reaches it,
    whose new part it is then in. A new prime walks the whole region and an
    old one each new block, so by then every base prime has walked and
    noted i, and `_divide` decides it over that round's base, as
    `collect_relations` would. No relation is missed: a smooth a is a
    product of base prime powers p**e, each crediting e * ceil(log2 p) >=
    log2 p**e bits, so the credits reach log2 a, at least the byte's start,
    and the byte reads 0 from the round its last prime walks i. If i lies
    below `confirmed` then, that prime is new and noted i in `fresh`;
    otherwise i is in a later window's new part. None is made up, since
    only exact division confirms one.

    `smooth` holds relations by candidate index, in the order confirmed,
    and only grows, so a relation's position in it is a stable id; each
    round's new ones, in b order, are those `collect_relations` finds over
    the same base and window and no earlier round found. `relations`
    yields each with its parity mask, an int with bit j set for each base
    index j whose prime divides a an odd number of times, from the division
    that confirmed it; the mask is kept nowhere, and `pair` gives its b and
    a. A prime p >= NOTE_MIN divides about one candidate in p/2, so a note
    stays a word or two wide where a parity int per candidate would grow to
    pi(B) bits.

    Both calls poll the Deadline the scanner was made with, at the points
    that `qs_factor`'s docstring lists.
    """

    def __init__(self, n: int, deadline: Deadline):
        self.n = n
        self.deadline = deadline  # the qs_factor call's, polled by every call
        self.start_b = _ceil_sqrt(n)
        self.primes: list[int] = []
        self.need = bytearray()  # bits of a still to credit, one byte per candidate
        self.notes: list[int] = []  # base indices of the primes >= NOTE_MIN hitting it, NOTE_BITS each
        # block -> (next hit index, step, tag) of each root; tag is the prime's
        # base index, or its complement at the prime's flag level
        self.buckets: defaultdict[int, list[tuple[int, int, int]]] = defaultdict(list)
        self.smooth: list[int] = []  # indices of the relations, in the order found
        self.small: list[int] = []  # base indices of the primes below NOTE_MIN with a root
        self.confirmed = 0  # the window the last `relations` confirmed
        self.fresh: list[int] = []  # candidates below it that a new prime zeroed since

    def advance(self, new_primes: tuple[int, ...], m_count: int) -> None:
        """Append `new_primes`, the base primes above the last call's, to the
        base, grow the region past a window of m_count candidates, and walk
        every root over what it has not walked yet."""
        n, s, need, notes, buckets = self.n, self.start_b, self.need, self.notes, self.buckets
        check = self.deadline.check
        primes, done = self.primes, self.confirmed
        old_primes, lo = len(primes), len(need)
        primes.extend(new_primes)
        walks = []  # entries as in buckets; a new prime's entries walk the whole region
        for blk in range(lo // BLOCK, -(-m_count // BLOCK)):
            cuts = (blk * BLOCK,) if blk else _BLOCK0_CUTS
            for c0, c1 in zip(cuts, cuts[1:] + ((blk + 1) * BLOCK,)):
                need += bytes((_log2_byte((s + c0) ** 2 - n),)) * (c1 - c0)
            notes.extend([0] * BLOCK)
            walks += buckets.pop(blk, ())
            check()
        m = len(need)
        for j in range(old_primes, len(primes)):
            check()
            p = primes[j]
            levels = _root_levels(n, p)
            if levels and p < NOTE_MIN:
                self.small.append(j)
            for q, roots, flag in levels:
                walks += [((r - s) % q, q, ~j if flag else j) for r in roots]
        small, fresh = bisect.bisect_left(primes, NOTE_MIN), self.fresh
        for entry in walks:
            i, q, tag = entry
            if i < m:  # a new prime's root may first hit past the region
                if m - i > BLOCK:
                    check()
                if tag < 0:  # the flag level: p**L divides each a it hits
                    p = primes[~tag]
                    bits = (p - 1).bit_length()
                    power = p * p
                    while power < BLOCK:
                        power *= p
                    while i < m:
                        a, credit = ((s + i) ** 2 - n) // power, bits
                        while a % p == 0:
                            a //= p
                            credit += bits
                        need[i] = c = _CREDIT[min(credit, 255)][need[i]]
                        if not c and i < done:
                            fresh.append(i)
                        i += q
                elif tag < small:
                    table = _CREDIT[(primes[tag] - 1).bit_length()]
                    need[i::q] = hits = need[i::q].translate(table)
                    if i < done:
                        stop = -(-(done - i) // q)  # the hits below done
                        k = hits.find(0, 0, stop)
                        while k >= 0:
                            fresh.append(i + k * q)
                            k = hits.find(0, k + 1, stop)
                    i = m + (i - m) % q
                else:
                    table = _CREDIT[(q - 1).bit_length()]
                    while i < done:  # only a new prime's walk starts below done
                        need[i] = c = table[need[i]]
                        if not c:
                            fresh.append(i)
                        notes[i] = notes[i] << NOTE_BITS | tag
                        i += q
                    while i < m:
                        need[i] = table[need[i]]
                        notes[i] = notes[i] << NOTE_BITS | tag
                        i += q
                entry = i, q, tag
            buckets[i // BLOCK].append(entry)

    def relations(self, m_count: int) -> Iterator[tuple[int, int]]:
        """Confirm the candidates of the first m_count flagged since the
        last call, after an `advance` over that window, and yield (i, parity
        mask of a) for each new relation i, in b order, once it is appended
        to `smooth`. m_count is at least the last call's."""
        need, check, done = self.need, self.deadline.check, self.confirmed
        flagged = sorted(self.fresh)
        i = need.find(0, done, m_count)
        while i >= 0:
            flagged.append(i)
            i = need.find(0, i + 1, m_count)
        for i in flagged:
            if need[i]:  # noted twice in fresh, and confirmed already
                continue
            check()
            c, mask = self._divide(i)
            if c == 1:
                need[i] = 255
                self.smooth.append(i)
                yield i, mask
            else:
                need[i] = _log2_byte(c)
        self.fresh.clear()
        self.confirmed = m_count

    def _divide(self, i: int) -> tuple[int, int]:
        """Candidate i's a divided by each noted prime and each rooted base
        prime below NOTE_MIN as often as it divides: the cofactor left, and
        the parity mask, bit j set for each base index j whose prime divided
        it an odd number of times. Once every base prime has walked i, the
        cofactor is 1 exactly when a is smooth."""
        primes, note, r = self.primes, self.notes[i], self.pair(i)[1]
        noted = []
        while note:
            noted.append(note & _NOTE_MASK)
            note >>= NOTE_BITS
        mask = 0
        for j in itertools.chain(noted, self.small):
            if r == 1:
                break
            p = primes[j]
            if r % p == 0:
                r //= p
                e = 1
                while r % p == 0:
                    r //= p
                    e ^= 1
                mask |= e << j
        return r, mask

    def pair(self, i: int) -> tuple[int, int]:
        """Candidate i's b and a = b*b - n."""
        return self.start_b + i, (self.start_b + i) ** 2 - self.n


def qs_factor(
    n: int, params: QsParams | None = None, budget_seconds: float | None = None
) -> tuple[int, QsTrace]:
    """Factor composite n with the retry loop over (bound, window) settings.

    Returns (factor, trace). Raises ValueError for n < 2 or wider than
    `primegen.MAX_BITS`, before the unpolled primality screen
    (`primegen.check_n`, the entry rule `pollard.pollard_factor` shares),
    and for a budget that is not a positive number (None means no deadline;
    `errors.Deadline` holds the rule); NotComposite for (probable) primes,
    2 and 3 included, which no round could split; BudgetExceeded at a
    polling point past the budget, which starts at entry; and Exhausted
    after max_rounds fruitless rounds. A perfect square n = k*k returns
    (k, trace) after 0 rounds, since the sieve's congruences all degenerate
    there.
    The deadline is polled at these points, and only at these:
    - once per item: before each prime of the first round's check for a
      base prime dividing n, before each new prime a round roots, and
      before each flagged candidate of a round's window is divided, which
      confirms it and, while n is unsplit, reduces its parity mask into the
      basis and tries the dependency it completes;
    - once for each new block of BLOCK candidates the sieved region grows
      by, after its bytes are appended;
    - before each root's walk, a slice or hit by hit, that starts more
      than BLOCK candidates before the region's end; a shorter walk, up to
      BLOCK candidates as is most walks over new blocks, is not polled;
    - once at the end of each round that does not split n.
    Every round takes its primes from `_primes_upto`, which sieves the
    shared prime table when the round's bound first passes it, with no
    poll; `QsParams` keeps the first bound at or below MAX_B_BOUND (10**6)
    so that the sieve stays short. Each round hands the scanner only the
    primes above its base so far, cut from that table. A first-round base
    prime dividing n is returned straight away and flagged in the trace.
    Each relation is kept as its candidate index in the scanner. A round's
    new relations are reduced, in b order, into one GF(2) basis kept for
    the whole call, each by the parity mask of the division that confirmed
    it, dropped once it is added. Each dependency that basis reports is
    tried once, in the round that completes it, by handing its (b, a)
    pairs to `extract_factor` (y = isqrt(prod a) mod n), so
    dependencies_tried counts basis dependencies. A relation with all-even
    exponents is such a dependency on its own. The round that splits n
    still confirms its whole window, so relations_found counts every
    relation of the last window, as a fresh `collect_relations` scan would.
    """
    check_n(n)
    trace = QsTrace()
    deadline = Deadline(budget_seconds, trace)
    params = params if params is not None else QsParams()
    root = math.isqrt(n)
    if root * root == n:
        return root, trace
    if is_probable_prime(n):
        raise NotComposite(f"{n} is probably prime", trace=trace)
    b_bound = params.b_bound
    m_count = params.m_count
    scanner = _RelationScanner(n, deadline)
    basis = XorBasis()  # row ids are positions in scanner.smooth
    g = None  # the factor, once a dependency splits n
    for round_no in range(1, params.max_rounds + 1):
        trace.rounds = round_no
        trace.final_b = b_bound
        trace.final_m = m_count
        table = _primes_upto(b_bound)
        new_primes = table[len(scanner.primes) : bisect.bisect_right(table, b_bound)]
        if round_no == 1:
            for p in new_primes:
                deadline.check()
                if n % p == 0:
                    trace.via_small_factor = True
                    return p, trace
        scanner.advance(new_primes, m_count)
        for _, mask in scanner.relations(m_count):
            trace.relations_found += 1
            # once n is split, the rest of the window is confirmed and counted only
            dep = None if g else basis.add(mask)
            if dep is not None:
                trace.dependencies_tried += 1
                g = extract_factor(n, [scanner.pair(scanner.smooth[r]) for r in sorted(dep.row_indices)])
        if g:
            return g, trace
        deadline.check()
        b_bound += B_INCREMENT
        m_count += M_INCREMENT
    raise Exhausted(f"no factor of {n} within {params.max_rounds} rounds", trace=trace)
