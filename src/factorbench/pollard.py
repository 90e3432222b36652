"""Pollard-rho factorization with Floyd cycle detection and a batched gcd.

The sequence x_{i+1} = x_i^2 + c (mod n) is walked at single and double
speed; gcd(|x - y|, n) exposes a factor once the two walkers collide modulo
a prime divisor of n. Two pre-checks run first: a primality test (a prime
has no factor to find, so it is NotComposite) and trial division by the ten
smallest primes. A walk whose walkers meet modulo n itself (gcd = n)
restarts with a fresh constant and start point, for at most MAX_RESTARTS
walks in all.

Each walk ends within n steps, so a call with no budget ends too. The map
x -> x^2 + c (mod n) has a tail mu and a cycle lam with mu + lam <= n. Step
i compares x_i with x_{2i+1}, so the walkers meet modulo n at the least
i >= max(mu, 1) with lam | i + 1, which is at most n - 1, and a gcd != 1
comes no later. The batch holding that step starts below n, so the walk's
loop runs over range(0, n, BATCH); were the range ever to run out, the walk
would fall through to the next restart, as a meeting does.

The walk takes one gcd per batch of `BATCH` steps (Brent 1980): it
multiplies the differences x - y of the batch together modulo n and takes
gcd(product, n) once. That gcd is 1 exactly when every step's gcd is 1, so
a batch whose gcd is not 1 is replayed from its saved start with a gcd after
each step, which stops at the same first step, with the same divisor, as a
walk with a gcd after every step. Factors, iteration counts and restarts are
therefore those of the per-step walk. The first two batches of each walk are
taken step by step outright, so a short walk does not overshoot and replay.

Below REUSE_STEPS steps the tortoise does not evaluate the map, except in
a replay. Step i compares x_i with x_{2i+1}, so every value the tortoise needs is one the hare
computed earlier. From the first step each walk keeps x_{i+1} .. x_{2i+1} in
a deque: in each step the hare appends the two values it computes and the
tortoise pops its value from the front, so a step evaluates the map twice in
place of three times. The deque holds one value per step walked, so at
REUSE_STEPS steps it is emptied and the walk goes back to three evaluations
a step. A walk that reaches that cap raises peak RSS by about 14 MB for a
72-bit n and 26 MB for a 512-bit one (CPython 3.11). Either way the batch
product is reduced mod n once per two steps, which leaves its residue, and
so the gcd, as it was.
"""

from __future__ import annotations

import math
import random
from collections import deque
from dataclasses import dataclass

from .arith import FIRST_TEN_PRIMES, is_probable_prime
from .errors import Deadline, Exhausted, NotComposite
from .primegen import check_n

# Floyd steps per gcd once a walk is past its per-step warm-up of 2 batches.
BATCH = 128
_WARMUP = 2 * BATCH
# Walk steps up to which the tortoise reuses the hare's stored values; the
# cap bounds the memory they take.
REUSE_STEPS = 2**18
# Walks per call; each walk after the first is a restart.
MAX_RESTARTS = 20


@dataclass(frozen=True)
class RhoConfig:
    seed: int


@dataclass
class RhoTrace:
    """Counters for one pollard_factor call: iterations accumulate across
    walks, and restarts is the index of the last walk begun, 0 for the
    first (and for a call that never walks)."""

    iterations: int = 0
    restarts: int = 0


def _floyd_steps(x: int, y: int, c: int, n: int) -> tuple[int, int]:
    """Replay a batch of BATCH Floyd steps from its saved start with a gcd
    after each. Returns (steps taken, the first gcd != 1). A batch is
    replayed only when the gcd of its product with n is not 1, so some
    step's gcd is not 1 and the replay returns inside the batch."""
    for taken in range(1, BATCH + 1):
        x = (x * x + c) % n
        y = (y * y + c) % n
        y = (y * y + c) % n
        d = math.gcd(x - y, n)
        if d != 1:
            return taken, d


def pollard_factor(
    n: int, cfg: RhoConfig, budget_seconds: float | None = None
) -> tuple[int, RhoTrace]:
    """Find a nontrivial factor of composite n.

    Raises ValueError for n < 2 or wider than `primegen.MAX_BITS`, before
    the unpolled primality screen (`primegen.check_n`, the entry rule
    `sieve.qs_factor` shares), and for a budget that is not a positive
    number (None means no deadline; `errors.Deadline` holds the rule);
    NotComposite for (probable) primes, 2 and 3 included; BudgetExceeded
    when the time budget, which starts at entry, runs out (the deadline is
    polled after every batch of BATCH steps); and Exhausted when every
    restart ended with gcd = n. Identical (n, seed) pairs produce identical
    traces.
    """
    check_n(n)
    trace = RhoTrace()
    deadline = Deadline(budget_seconds, trace)
    if is_probable_prime(n):
        raise NotComposite(f"{n} is probably prime", trace=trace)
    for p in FIRST_TEN_PRIMES:
        if n % p == 0:
            return p, trace
    rng = random.Random(cfg.seed)
    for attempt in range(MAX_RESTARTS):
        c = rng.randrange(1, n)
        x = rng.randrange(1, n)
        trace.restarts = attempt
        y = (x * x + c) % n
        ahead = deque((y,))  # x_{i+1} .. x_{2i+1} after step i, below the cap
        pop, push = ahead.popleft, ahead.append
        for walked in range(0, n, BATCH):
            if walked < _WARMUP:
                for taken in range(1, BATCH + 1):
                    push(y := (y * y + c) % n)
                    push(y := (y * y + c) % n)
                    x = pop()
                    if (d := math.gcd(x - y, n)) != 1:
                        break
            else:
                x0, y0 = x, y
                prod = 1
                if walked >= REUSE_STEPS:
                    ahead.clear()
                if ahead:
                    for _ in range(BATCH // 2):
                        push(y := (y * y + c) % n)
                        push(y := (y * y + c) % n)
                        e = pop() - y
                        push(y := (y * y + c) % n)
                        push(y := (y * y + c) % n)
                        x = pop()
                        prod = prod * e * (x - y) % n
                else:
                    for _ in range(BATCH // 2):
                        x = (x * x + c) % n
                        y = (y * y + c) % n
                        y = (y * y + c) % n
                        e = x - y
                        x = (x * x + c) % n
                        y = (y * y + c) % n
                        y = (y * y + c) % n
                        prod = prod * e * (x - y) % n
                taken, d = BATCH, math.gcd(prod, n)
                if d != 1:
                    taken, d = _floyd_steps(x0, y0, c, n)
            trace.iterations += taken
            if d != 1:
                if d != n:
                    return d, trace
                break  # walkers met; restart with fresh c and x0
            deadline.check()
    raise Exhausted(f"no nontrivial factor of {n} in {MAX_RESTARTS} restarts", trace=trace)
