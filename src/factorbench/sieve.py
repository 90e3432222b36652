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
runs the retry loop on top of a root-indexed sieve that keeps each
candidate's undivided residual between rounds. Each base prime's square
roots of n are found once, when it is admitted (Tonelli-Shanks), and the
prime then divides only the candidates b = +-r (mod p) where it must divide
a. Primes of which n is a quadratic non-residue are dropped after that one
check and never enter a loop again. The sieved region grows in whole blocks
of BLOCK candidates, to the first block edge at or past the round's window,
so it runs ahead of the window by less than a block and grows only about
once every BLOCK / M_INCREMENT rounds: a newly admitted prime walks the
whole region, an older one only the blocks added. A candidate past the
window whose residual reaches 1 waits, and becomes a relation in the round
whose window reaches it, so every round's relations are those of the window
alone. The region grows as x*x - n, with no division per candidate. Walk
state is each root of each rooted prime, waiting as its next hit index in a
bucket of BLOCK candidates (the segmented bucket sieve of Aoki and Ueda).
New blocks are walked by the entries of their buckets, each filed again
where its walk stopped, so a prime costs nothing until its next hit falls
in a new block. Every walk, a new prime's over the whole region or an old
one's over new blocks, is the same loop over such entries. A prime below
NOTE_MIN only divides; a larger prime also notes its base index on the
candidate at each division. The factor base is still every prime up to the
bound, and the per-round relation sets are identical to fresh reference
scans (the tests check this), only far cheaper. The sieve keeps each
relation as just its candidate index, which gives b and a: extraction needs
nothing more, and no mask or exponent vector is kept.

The matrix step is incremental as well. One `XorBasis` lives for the whole
call; each round reduces only the relations that are new in it, and only
the dependencies those new rows complete are tried. Sending a dependency
to x/y mod n maps its null space homomorphically into the square roots of
1, so a round splits n iff some vector of a null-space basis does, and
the basis vectors of earlier rounds were all tried and found trivial.
Rounds to success are therefore those of re-running `gf2.eliminate` on
every relation every round, which stays the reference. A relation's
parity mask is built only as the basis reduces it, and kept nowhere: the
bits of the noted primes (a prime noted twice cancels) XOR the bits of the
primes below NOTE_MIN, found by dividing what the noted primes leave of a.
A round that splits n stops there, so the relations after the one that
completes the splitting dependency never get a mask.
"""
from __future__ import annotations

import bisect
import math
from collections import defaultdict
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

    bound: int
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
# walk over more candidates than this polls the deadline first.
BLOCK = 1024
# Primes below this only divide; a larger prime also notes its base index
# on each candidate it divides. It bounds the trial divisions that find
# the small primes' mask bits to the 31 primes below it.
NOTE_MIN = 128
# New primes rooted between two deadline polls, and relations reduced into
# the GF(2) basis between two polls.
FILL = 256
# Bits per base index in a candidate's note of the primes at or above
# NOTE_MIN that divided it. Base indices stay far below 2**32, and those of
# such primes are above 0, so a note is 0 exactly when it is empty.
NOTE_BITS = 32
_NOTE_MASK = (1 << NOTE_BITS) - 1

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
    return FactorBase(bound, primes[: bisect.bisect_right(primes, bound)])


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
    """Root-indexed exact sieve shared across retry rounds.

    `primes` is the factor base so far; each `advance` appends its round's
    new primes, so base indices never change. `rem[i]` is what is left of
    a = b*b - n, b = ceil(sqrt(n)) + i, after dividing out the full power
    of every walked prime that divides it, and `notes[i]` packs, NOTE_BITS
    bits each, the base index j of every division by a prime p >= NOTE_MIN,
    once per division; divisions by smaller primes are not noted. A prime p
    divides a exactly where b*b = n (mod p), i.e. on the progressions
    b = +-r (mod p) of the roots r of n mod p, and p**e can only divide a
    there too. So each prime is rooted once, in the call that admits it,
    and visits just its progressions. A prime with no root of n is never
    kept, so it costs nothing after that one check.

    The sieved region, `rem`'s length, grows to the first multiple of BLOCK
    at or past each call's window, so it grows only in whole blocks, and
    only in a call whose window passes it. Each root of each rooted prime
    is kept as an entry (next hit index, p, j), j being p's base index,
    filed in `buckets` under index // BLOCK (the bucket sieve of Aoki and
    Ueda). An entry holds j, not the mask bit 1 << j: kept bits would take
    memory quadratic in the base size. One loop over a call's new blocks
    appends each block's a values, pops its bucket and polls the Deadline
    the scanner was made with. The call's walks are one list of entries:
    those popped, and the roots of its new primes from their first hit.
    One loop walks each entry by p up to the region's end, dividing at
    every hit, and files it again at the index it stopped on, at or past
    the region's end. New blocks start on a bucket's edge, so an entry is
    popped only when its next hit lies in them: a call's work is the hits
    in its new blocks, not the size of the base.

    A candidate whose residual reaches 1 is smooth; later primes cannot
    divide it. It becomes a relation in the call whose window first covers
    it: at once when it is in the window, else it waits in `pending` until
    a later window reaches it. `smooth` holds relations by candidate index
    and only grows, so a relation's position in it is a stable id; its
    per-call sets, in b order, equal `collect_relations` over the same base
    and window. `pair` gives a relation's b and a, and `mask` its parity
    mask, built on each call and kept nowhere: bit j for each index noted
    an odd number of times, XOR the bits of the primes below NOTE_MIN,
    found by dividing what the noted primes leave of a, at most 31 trials.
    A prime p >= NOTE_MIN divides about one candidate in p/2, so a note
    stays a word or two wide where a parity int per candidate would grow
    to π(B) bits.
    """

    def __init__(self, n: int, deadline: Deadline):
        self.n = n
        self.deadline = deadline  # the qs_factor call's, polled by every advance
        self.start_b = _ceil_sqrt(n)
        self.primes: list[int] = []
        # a = 0 only at b = sqrt(n) of a square n, which qs_factor screens
        # out first; a residual of 0 is never divided or made a relation
        self.rem: list[int] = []
        self.notes: list[int] = []  # base indices of the large-prime divisions, NOTE_BITS each
        # block -> (next hit index, p, base index) of each root of a rooted prime
        self.buckets: defaultdict[int, list[tuple[int, int, int]]] = defaultdict(list)
        # smooth indices past the window so far; a rises with b, so only
        # candidate 0's a can be 1, which is smooth before any prime walks
        self.pending: list[int] = [0] if self.start_b * self.start_b - n == 1 else []
        self.smooth: list[int] = []  # indices of the relations, in the order found

    def advance(self, new_primes: tuple[int, ...], m_count: int) -> None:
        """Append `new_primes`, the base primes above the last call's, to the
        base, widen the window to m_count candidates, and append the
        window's new relations to `smooth` in b order."""
        n, s, rem, notes, buckets = self.n, self.start_b, self.rem, self.notes, self.buckets
        check = self.deadline.check
        primes = self.primes
        old_primes = len(primes)
        primes.extend(new_primes)
        walks = []  # (next hit index, p, base index); a new prime walks the whole region
        for blk in range(len(rem) // BLOCK, -(-m_count // BLOCK)):
            b0 = s + blk * BLOCK
            rem.extend([b * b - n for b in range(b0, b0 + BLOCK)])
            notes.extend([0] * BLOCK)
            walks += buckets.pop(blk, ())
            check()
        m = len(rem)
        for j in range(old_primes, len(primes)):
            if j % FILL == 0:
                check()
            p = primes[j]
            for r in sqrt_mod_prime(n, p):
                walks.append(((r - s) % p, p, j))
        done = self.pending  # indices whose residual reached 1, in or past the window
        for i, p, j in walks:
            if m - i > BLOCK:
                check()
            if p < NOTE_MIN:  # a small prime's bit is found from a at smooth time
                while i < m:
                    r = rem[i]
                    if r > 1:
                        r //= p
                        while r % p == 0:
                            r //= p
                        rem[i] = r
                        if r == 1:
                            done.append(i)
                    i += p
            else:
                while i < m:
                    r = rem[i]
                    if r > 1:
                        r //= p
                        note = notes[i] << NOTE_BITS | j
                        while r % p == 0:
                            r //= p
                            note = note << NOTE_BITS | j
                        notes[i] = note
                        rem[i] = r
                        if r == 1:
                            done.append(i)
                    i += p
            buckets[i // BLOCK].append((i, p, j))
        self.pending = [i for i in done if i >= m_count]
        self.smooth += sorted(i for i in done if i < m_count)

    def pair(self, i: int) -> tuple[int, int]:
        """Candidate i's b and a = b*b - n."""
        return self.start_b + i, (self.start_b + i) ** 2 - self.n

    def mask(self, i: int) -> int:
        """The parity mask of smooth candidate i's a. The notes give the bits
        of the primes at or above NOTE_MIN; what they leave of a is divided
        by the primes below it, which are the first in the base."""
        mask, r, note = 0, self.pair(i)[1], self.notes[i]
        while note:
            j = note & _NOTE_MASK
            mask ^= 1 << j
            r //= self.primes[j]
            note >>= NOTE_BITS
        for j, p in enumerate(self.primes):
            if r == 1:
                break
            odd = False
            while r % p == 0:
                r //= p
                odd = not odd
            if odd:
                mask ^= 1 << j
        return mask


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
    - in the first round's check for a base prime dividing n, before each
      FILL primes;
    - once for each new block of BLOCK candidates the sieved region grows
      by, after its a values are appended;
    - while a call roots its new primes, before each prime whose base index
      is a multiple of FILL;
    - before each root's walk that starts more than BLOCK candidates
      before the region's end; a shorter walk, up to BLOCK candidates as is
      most walks over new blocks, is not polled;
    - in each round's matrix step, before its first new row and every FILL
      rows after, and once after the step.
    Every round takes its primes from `_primes_upto`, which sieves the
    shared prime table when the round's bound first passes it, with no
    poll; `QsParams` keeps the first bound at or below MAX_B_BOUND (10**6)
    so that the sieve stays short. Each round hands the scanner only the
    primes above its base so far, cut from that table. A first-round base
    prime dividing n is returned straight away and flagged in the trace.
    Each relation is kept as its candidate index in the scanner. A round's
    new relations are reduced, in b order, into one GF(2) basis kept for
    the whole call, each by a parity mask built just before it is added
    and dropped after. Each dependency that basis reports is tried once, in
    the round that completes it, by handing its (b, a) pairs to
    `extract_factor` (y = isqrt(prod a) mod n), so dependencies_tried
    counts basis dependencies. A relation with all-even exponents is such
    a dependency on its own.
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
    for round_no in range(1, params.max_rounds + 1):
        trace.rounds = round_no
        trace.final_b = b_bound
        trace.final_m = m_count
        table = _primes_upto(b_bound)
        new_primes = table[len(scanner.primes) : bisect.bisect_right(table, b_bound)]
        if round_no == 1:
            for j, p in enumerate(new_primes):
                if j % FILL == 0:
                    deadline.check()
                if p < n and n % p == 0:
                    trace.via_small_factor = True
                    return p, trace
        scanner.advance(new_primes, m_count)
        trace.relations_found = len(scanner.smooth)
        for k, i in enumerate(scanner.smooth[basis.n_rows :]):
            if k % FILL == 0:
                deadline.check()
            dep = basis.add(scanner.mask(i))
            if dep is None:
                continue
            trace.dependencies_tried += 1
            g = extract_factor(n, [scanner.pair(scanner.smooth[r]) for r in sorted(dep.row_indices)])
            if g is not None:
                return g, trace
        deadline.check()
        b_bound += B_INCREMENT
        m_count += M_INCREMENT
    raise Exhausted(f"no factor of {n} within {params.max_rounds} rounds", trace=trace)
