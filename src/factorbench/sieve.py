"""Basic quadratic sieve: factor base, relation collection, matrix step,
congruence-of-squares extraction, and the bound/window retry loop.

Candidates b = ceil(sqrt(n)), ceil(sqrt(n))+1, ... give residues
a = b*b mod n; the ones that factor completely over the prime base become
relations. A subset of relations whose exponent parities cancel yields
x*x = y*y (mod n), and gcd(|x-y|, n) then splits n unless the congruence
is degenerate. When no split falls out, the smooth bound and the scan
window both grow by fixed increments and the process repeats.

`collect_relations` is the plain reference scan for one (base, window)
setting: it trial-divides every candidate by every base prime. `qs_factor`
runs the retry loop on top of a root-indexed sieve that keeps each
candidate's undivided residual between rounds. Each base prime's square
roots of n are found once (Tonelli-Shanks), and the prime then divides only
the candidates b = +-r (mod p) where it must divide a: over the whole
window when it is newly admitted, over the newly added tail after that.
Primes of which n is a quadratic non-residue never divide a and so touch
no candidate. The factor base is still every prime up to the bound, and
the per-round relation sets are identical to fresh reference scans (the
tests check this), only far cheaper.

The matrix step is incremental as well. One `XorBasis` lives for the whole
call; each round reduces only the relations that are new in it, and only
the dependencies those new rows complete are tried. Sending a dependency
to x/y mod n maps its null space homomorphically into the square roots of
1, so a round splits n iff some vector of a null-space basis does, and
the basis vectors of earlier rounds were all tried and found trivial.
Rounds to success are therefore those of re-running `gf2.eliminate` on
every relation every round, which stays the reference.
"""

from __future__ import annotations

import bisect
import math
import time
from dataclasses import dataclass

from .arith import _sieve_upto, isqrt, sqrt_mod_prime
from .errors import BudgetExceeded, PerfectSquare, RoundsExhausted
from .gf2 import Dependency, XorBasis
# not called here: the traced benchmark (layerbench) wraps sieve.eliminate by name
from .gf2 import eliminate  # noqa: F401


@dataclass(frozen=True)
class FactorBase:
    """All primes up to and including the smooth bound, ascending."""

    bound: int
    primes: tuple[int, ...]


@dataclass(frozen=True)
class Relation:
    """One candidate b with b*b = a (mod n) and a fully smooth over the base."""

    b: int
    a: int
    exponents: tuple[int, ...]
    parity: tuple[int, ...]

    def __post_init__(self):
        if len(self.exponents) != len(self.parity):
            raise ValueError("exponent and parity vectors must have equal length")


@dataclass(frozen=True)
class QsParams:
    b_bound: int = 10
    m_count: int = 100
    b_increment: int = 10
    m_increment: int = 100
    max_rounds: int = 500

    def __post_init__(self):
        if self.b_bound < 2:
            raise ValueError("b_bound must be >= 2")
        if self.m_count < 1:
            raise ValueError("m_count must be >= 1")
        if self.b_increment < 1 or self.m_increment < 1:
            raise ValueError("increments must be >= 1")
        if self.max_rounds < 1:
            raise ValueError("max_rounds must be >= 1")


@dataclass
class QsTrace:
    rounds: int = 0
    relations_found: int = 0
    dependencies_tried: int = 0
    final_b: int = 0
    final_m: int = 0
    via_small_factor: bool = False


# (limit, every prime up to limit); replaced whole, never mutated
_prime_table: tuple[int, tuple[int, ...]] = (1, ())


def build_factor_base(bound: int) -> FactorBase:
    """All primes up to the smooth bound, cut from a shared prime table that
    is re-sieved at double its limit (or at the bound) when a bound passes it."""
    global _prime_table
    if bound < 2:
        raise ValueError("bound must be >= 2")
    limit, primes = _prime_table
    if bound > limit:
        limit = max(bound, 2 * limit)
        primes = tuple(_sieve_upto(limit))
        _prime_table = limit, primes
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
    r = isqrt(n)
    return r + 1 if r * r < n else r


def collect_relations(
    n: int, fb: FactorBase, m_count: int, deadline: float | None = None
) -> list[Relation]:
    """Scan m_count consecutive candidates from ceil(sqrt(n)) and keep the
    smooth ones, in scan order.

    `deadline` is an absolute time.monotonic() timestamp; crossing it raises
    BudgetExceeded and the partial scan is discarded.
    """
    relations = []
    b = _ceil_sqrt(n)
    for _ in range(m_count):
        if deadline is not None and time.monotonic() > deadline:
            raise BudgetExceeded(f"relation scan over {n} ran past its deadline")
        a = b * b % n
        if a != 0:
            exps = smooth_decompose(a, fb)
            if exps is not None:
                relations.append(
                    Relation(b=b, a=a, exponents=tuple(exps), parity=tuple(e & 1 for e in exps))
                )
        b += 1
    return relations


def extract_factor(
    n: int, fb: FactorBase, relations: list[Relation], dep: Dependency
) -> int | None:
    """Turn one dependency into a factor via the congruence of squares.

    x is the product of the selected b values mod n; y is rebuilt from the
    halved sum of exponent vectors. Tries gcd(|x-y|, n) and then
    gcd(x+y, n); returns None when both come out trivial.
    """
    indices = sorted(dep.row_indices)
    width = len(fb.primes)
    x = 1
    for i in indices:
        if not 0 <= i < len(relations):
            raise IndexError(f"relation index {i} out of range")
        rel = relations[i]
        if len(rel.exponents) != width:
            raise ValueError("relation exponent vector does not match the base")
        x = x * rel.b % n
    total = [sum(column) for column in zip(*(relations[i].exponents for i in indices))]
    if any(e & 1 for e in total):
        raise ValueError("selected relations do not have even combined exponents")
    y = 1
    for p, e in zip(fb.primes, total):
        if e:
            y = y * pow(p, e >> 1, n) % n
    g = math.gcd(x - y, n)
    if 1 < g < n:
        return g
    g = math.gcd(x + y, n)
    if 1 < g < n:
        return g
    return None


class _RelationScanner:
    """Root-indexed exact sieve shared across retry rounds.

    `rem[i]` is what is left of a = b*b mod n, b = ceil(sqrt(n)) + i, after
    dividing out the full power of every admitted prime that divides it.
    Writing a = b*b - k*n with k = b*b // n, a prime p divides a exactly
    where b*b = k*n (mod p), i.e. on the progressions b = +-r (mod p) of the
    roots r of k*n mod p, and p**e can only divide a there too. So each
    prime visits just its progressions: a newly admitted prime walks the
    whole window, an older one only the tail added this round. Primes with
    no root never touch a candidate. k is constant on runs of consecutive
    candidates (`seg_starts`/`seg_ks`); for n of 40 bits and more at the
    default windows it is always 1.

    A candidate whose residual reaches 1 is smooth; its exponent vector is
    rebuilt from a by trial division over the base of that round and frozen
    at that width (later primes cannot divide an already-smooth residue,
    so the tail is always zero padding). `smooth` only grows, so a
    relation's index in it is a stable id; `relations` lists them in b
    order, and its per-round sets equal `collect_relations` over the same
    base and window.
    """

    def __init__(self, n: int):
        self.n = n
        self.start_b = _ceil_sqrt(n)
        self.rem: list[int] = []  # 0 marks a = 0, which is never a relation
        self.seg_starts: list[int] = []  # index where each run of equal k begins
        self.seg_ks: list[int] = []
        self.offsets: dict[int, list[tuple[int, ...]]] = {}  # k -> per base prime, hit indices mod p
        self.smooth: list[tuple] = []  # (b, a, exps, parity_mask), in the order found
        self.primes_done = 0

    def advance(self, primes: tuple[int, ...], m_count: int, deadline: float | None) -> None:
        old_m, done = len(self.rem), self.primes_done
        fresh: list[int] = []  # indices whose residual reached 1 in this call
        self._extend(m_count, deadline, fresh)
        n, s, rem = self.n, self.start_b, self.rem
        ends = self.seg_starts[1:] + [len(rem)]
        for seg_lo, seg_hi, k in zip(self.seg_starts, ends, self.seg_ks):
            offsets = self.offsets.setdefault(k, [])
            for p in primes[len(offsets) :]:
                offsets.append(tuple((r - s) % p for r in sqrt_mod_prime(k * n, p)))
            # the old primes have walked this run of k up to old_m already, so
            # each walks only the tail added since; one poll covers all of them
            tail_lo = max(seg_lo, old_m)
            self._check(deadline)
            for j in range(done if seg_hi <= old_m else 0, len(primes)):
                p = primes[j]
                if j < done:
                    lo = tail_lo
                else:  # a new prime walks the whole run
                    lo = seg_lo
                    self._check(deadline)
                for o in offsets[j]:
                    for i in range(lo + (o - lo) % p, seg_hi, p):
                        r = rem[i]
                        if r > 1:
                            while r % p == 0:
                                r //= p
                            rem[i] = r
                            if r == 1:
                                fresh.append(i)
        self.primes_done = len(primes)
        if fresh:
            fb = FactorBase(primes[-1], primes)
            for i in sorted(fresh):
                b = s + i
                a = b * b % n
                exps = smooth_decompose(a, fb)
                mask = sum(1 << j for j, e in enumerate(exps) if e & 1)
                self.smooth.append((b, a, exps, mask))

    def _extend(self, m_count: int, deadline: float | None, fresh: list[int]) -> None:
        n, rem = self.n, self.rem
        for i in range(len(rem), m_count):
            if i & 255 == 0:
                self._check(deadline)
            b = self.start_b + i
            k, a = divmod(b * b, n)
            if not self.seg_ks or self.seg_ks[-1] != k:
                self.seg_starts.append(i)
                self.seg_ks.append(k)
            rem.append(a)
            if a == 1:
                fresh.append(i)

    def _check(self, deadline: float | None) -> None:
        if deadline is not None and time.monotonic() > deadline:
            raise BudgetExceeded(f"relation scan over {self.n} ran past its deadline")

    def relation(self, i: int, fb: FactorBase) -> Relation:
        """Relation number i, in the order found, padded to the width of fb."""
        b, a, exps, _ = self.smooth[i]
        pad = (0,) * (len(fb.primes) - len(exps))
        parity = tuple(e & 1 for e in exps) + pad
        return Relation(b=b, a=a, exponents=tuple(exps) + pad, parity=parity)

    def relations(self, fb: FactorBase) -> list[Relation]:
        """Every relation so far in scan (b) order, as `collect_relations`."""
        order = sorted(range(len(self.smooth)), key=lambda i: self.smooth[i][0])
        return [self.relation(i, fb) for i in order]


def qs_factor(
    n: int, params: QsParams | None = None, budget_seconds: float | None = None
) -> tuple[int, QsTrace]:
    """Factor composite n with the retry loop over (bound, window) settings.

    Returns (factor, trace). Raises PerfectSquare when n = k*k (the sieve's
    congruences all degenerate there), BudgetExceeded at a polling point
    past the budget, and RoundsExhausted after max_rounds fruitless rounds.
    A first-round base prime dividing n is returned straight away and
    flagged in the trace. Each round's new relations are reduced into one
    GF(2) basis kept for the whole call, and each dependency that basis
    reports is tried once, in the round that completes it, so
    dependencies_tried counts basis dependencies. A relation with all-even
    exponents is such a dependency on its own.
    """
    if n < 4:
        raise ValueError("n must be >= 4")
    params = params if params is not None else QsParams()
    root = isqrt(n)
    if root * root == n:
        raise PerfectSquare(n, root)
    deadline = None if budget_seconds is None else time.monotonic() + budget_seconds
    trace = QsTrace()
    b_bound = params.b_bound
    m_count = params.m_count
    scanner = _RelationScanner(n)
    basis = XorBasis()  # row ids are indices into scanner.smooth
    for round_no in range(1, params.max_rounds + 1):
        trace.rounds = round_no
        trace.final_b = b_bound
        trace.final_m = m_count
        fb = build_factor_base(b_bound)
        if round_no == 1:
            for p in fb.primes:
                if p < n and n % p == 0:
                    trace.via_small_factor = True
                    return p, trace
        try:
            scanner.advance(fb.primes, m_count, deadline)
        except BudgetExceeded as exc:
            exc.trace = trace
            raise
        trace.relations_found = len(scanner.smooth)
        if deadline is not None and time.monotonic() > deadline:
            raise BudgetExceeded(f"sieve budget exceeded on {n}", trace=trace)
        for entry in scanner.smooth[basis.n_rows :]:
            dep = basis.add(entry[3])
            if dep is None:
                continue
            trace.dependencies_tried += 1
            # pad only the dependency's own relations to this round's width;
            # together they form the whole dependency
            selected = [scanner.relation(i, fb) for i in sorted(dep.row_indices)]
            g = extract_factor(n, fb, selected, Dependency(frozenset(range(len(selected)))))
            if g is not None:
                return g, trace
        if deadline is not None and time.monotonic() > deadline:
            raise BudgetExceeded(f"sieve budget exceeded on {n}", trace=trace)
        b_bound += params.b_increment
        m_count += params.m_increment
    raise RoundsExhausted(f"no factor of {n} within {params.max_rounds} rounds", trace=trace)
