"""The three workloads and how their inputs are drawn from a seed.

Every workload is a closed loop: run_bench with one worker makes one
attempt at a time, the next starting when the previous one returns.

Sieve cost is heavy-tailed: the slowest 50-bit number in a group takes
tens of times longer than the fastest, and a run has room for only a few
dozen sieve attempts, so a plain random draw makes each seed's total time
swing by about as much as a later change is allowed to move it. The
workloads that run the sieve therefore draw POOL candidates per kept row
from the program's own generator and, for each of a fixed set of
Knuth-Schroeppel score targets, keep the nearest-scoring candidate. The
score has a correlation of about -0.96 with log sieve rounds on 50-54-bit
semiprimes, so every seed gets the same mix of easy and hard numbers while
the numbers themselves change with the seed.

Rho walks on grid-40-50 take about a quarter of a millisecond at the
median, so there pollard runs on the whole candidate pool, four times the
numbers the sieve gets. The grid's 432 rho attempts then cost under half a
second a pass. Over five seeds their geometric mean varied by 4 %
(standard deviation), against 9 % over the sieve's 108 rows alone, run
in one block rather than spread over the pass.

On sieve-54 candidates scoring below its min_score (about the lowest
tenth) are not kept. On those the basic sieve is the likeliest to reach its
500-round cap and give up, which at 54 bits and above happens to a
seed-dependent few numbers; a workload whose failed share changed with the
seed could not be compared between two commits. The give-ups are the
method's documented limit, described in layerbench/README.md. grid-40-50
keeps the whole score range: its lowest target needs about 230 rounds at
50 bits, far from the cap.
"""

from __future__ import annotations

import functools
import math
import random
from dataclasses import dataclass

from checks import is_prime

SCORE_PRIMES = tuple(p for p in range(3, 1000, 2) if is_prime(p))
POOL = 4  # candidates drawn per kept row on the workloads that run the sieve
REFERENCE_SIZE = 2000


@dataclass(frozen=True)
class Workload:
    name: str
    groups: tuple[tuple[int, int], ...]  # (p_bits, n_bits) per fixed-width group
    per_group: int  # rows kept per group
    algorithms: tuple[str, ...]
    min_score: float = 0.0  # no candidate scoring below it is kept

    @property
    def pool(self) -> int:
        return POOL if "qs" in self.algorithms else 1


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "grid-40-50",
            tuple((pb, nb) for nb in (40, 50) for pb in range(5, nb // 2 + 1, 5)),
            per_group=12,
            algorithms=("pollard", "qs"),
        ),
        # about the lowest tenth of such products score below 5.0
        Workload("sieve-54", tuple((pb, 54) for pb in range(5, 26, 5)), 6, ("qs",), 5.0),
        Workload("rho-72", tuple((pb, 72) for pb in range(32, 37)), 20, ("pollard",)),
    )
}


def smoothness_score(n: int) -> float:
    """Knuth-Schroeppel score: the expected log of the part of b*b - n made
    of primes below 1000. An odd p adds 2 ln p / (p - 1) when n is a
    quadratic residue mod p; 2 adds 2 ln 2, ln 2 or ln 2 / 2 as n is 1, 5 or
    3 mod 8."""
    two = {1: 2.0, 5: 1.0}.get(n % 8, 0.5) * math.log(2)
    return two + sum(
        2.0 * math.log(p) / (p - 1) for p in SCORE_PRIMES if pow(n, (p - 1) // 2, p) == 1
    )


@functools.cache
def score_targets(k: int, min_score: float) -> tuple[float, ...]:
    """k score quantiles, (j + 1/2)/k for j < k, of a fixed reference sample
    scoring at least min_score. The sample is of odd integers prime to every
    score prime, as the workloads' products of two large primes are. The
    targets do not depend on the seed, so every seed keeps rows of the same
    scores."""
    rng = random.Random("layerbench score reference")
    primorial = math.prod(SCORE_PRIMES)
    reference = []
    while len(reference) < REFERENCE_SIZE:
        n = rng.getrandbits(64) | 1
        if math.gcd(n, primorial) == 1:
            reference.append(smoothness_score(n))
    eligible = sorted(s for s in reference if s >= min_score)
    return tuple(eligible[(2 * j + 1) * len(eligible) // (2 * k)] for j in range(k))


def pool_spec(workload: Workload, seed: int, primegen):
    """The program's dataset spec for the workload's whole candidate pool."""
    count = workload.per_group * workload.pool
    return primegen.DatasetSpec(
        seed=seed,
        groups=tuple(primegen.FixedGroup(count, pb, nb - pb, nb) for pb, nb in workload.groups),
    )


def select_rows(workload: Workload, members: list) -> list:
    """For each score target, the nearest-scoring unused candidate of one
    group's pool."""
    scored = [(smoothness_score(sp.n), sp) for sp in members]
    scored = [e for e in scored if e[0] >= workload.min_score]
    kept = []
    for target in score_targets(workload.per_group, workload.min_score):
        if not scored:
            raise ValueError(f"{workload.name}: too few eligible rows in a group")
        best = min(range(len(scored)), key=lambda i: abs(scored[i][0] - target))
        kept.append(scored.pop(best)[1])
    return kept


def plan(workload: Workload, pool_rows) -> list[tuple[str, list]]:
    """The pass as (algorithm, rows) run_bench calls, in order. Call k of an
    algorithm takes the k-th wave: one row from every group for the sieve,
    the k-th share of every group's pool for pollard. The waves of the two
    algorithms alternate, so each algorithm's attempts are spread over the
    whole pass and drift in machine speed lands evenly on every group and
    both algorithms."""
    size, pool = workload.per_group * workload.pool, workload.pool
    groups = [pool_rows[g * size : (g + 1) * size] for g in range(len(workload.groups))]
    if "qs" in workload.algorithms:
        kept = [select_rows(workload, members) for members in groups]
    calls = []
    for k in range(workload.per_group):
        for algorithm in workload.algorithms:
            if algorithm == "pollard":
                rows = [sp for members in groups for sp in members[k * pool : (k + 1) * pool]]
            else:
                rows = [members[k] for members in kept]
            calls.append((algorithm, rows))
    return calls
