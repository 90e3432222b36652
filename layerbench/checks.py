"""Correctness checks made apart from the program.

Nothing here imports factorbench.arith: primality is decided by a
deterministic Miller-Rabin of this file's own, and relation and GF(2)
properties are recomputed with plain integer arithmetic. Each check returns
a list of violation messages; an empty list means the check passed.
"""

from __future__ import annotations

# Bases 2..37 (the first twelve primes) make Miller-Rabin exact below
# 318665857834031151167461 (about 3.18e23; Sorenson and Webster, 2015). Every
# number the workloads generate is below 2**72, about 4.7e21.
MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
MR_EXACT_BELOW = 318665857834031151167461


def is_prime(n: int) -> bool:
    """Deterministic primality for n < MR_EXACT_BELOW."""
    if n >= MR_EXACT_BELOW:
        raise ValueError(f"{n} is beyond the exact range of the fixed bases")
    if n < 2:
        return False
    for p in MR_BASES:
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def check_dataset(rows) -> list[str]:
    """Every row: p and q prime, p*q = n, recorded widths exact."""
    bad = []
    for i, sp in enumerate(rows):
        if sp.p * sp.q != sp.n:
            bad.append(f"row {i}: p*q != n for n={sp.n}")
        for name, value in (("p", sp.p), ("q", sp.q)):
            if not is_prime(value):
                bad.append(f"row {i}: {name}={value} is not prime")
        if (sp.p.bit_length(), sp.q.bit_length(), sp.n.bit_length()) != (
            sp.p_bits,
            sp.q_bits,
            sp.n_bits,
        ):
            bad.append(f"row {i}: recorded widths disagree with n={sp.n}")
    return bad


def check_records(expected, records) -> list[str]:
    """One record per expected (row, algorithm) attempt, in order; a
    success's factor is p or q; a non-success carries no factor."""
    if len(records) != len(expected):
        return [f"{len(records)} records for {len(expected)} attempts"]
    bad = []
    for i, ((sp, algorithm), record) in enumerate(zip(expected, records)):
        out = record.outcome
        if record.semiprime != sp or out.n != sp.n or out.algorithm != algorithm:
            bad.append(f"record {i}: does not match attempt ({sp.n}, {algorithm})")
        elif out.status == "success":
            if out.factor not in (sp.p, sp.q):
                bad.append(f"record {i}: factor {out.factor} of {sp.n} is neither p nor q")
        elif out.factor is not None:
            bad.append(f"record {i}: status {out.status} carries factor {out.factor}")
    return bad


def check_relations(n: int, primes, relations) -> list[str]:
    """Each relation: b*b = a (mod n), a = prod p**e over the base, and the
    parity vector is the exponent vector mod 2."""
    bad = []
    for rel in relations:
        if rel.b * rel.b % n != rel.a:
            bad.append(f"n={n}: b={rel.b} has b*b mod n != {rel.a}")
        product = 1
        for p, e in zip(primes, rel.exponents):
            product *= p**e
        if product != rel.a or len(rel.exponents) != len(primes):
            bad.append(f"n={n}: a={rel.a} is not its exponent vector's product")
        if tuple(e & 1 for e in rel.exponents) != rel.parity:
            bad.append(f"n={n}: b={rel.b} parity disagrees with its exponents")
    return bad


def gf2_rank(rows) -> int:
    """Rank over GF(2) of rows packed into ints, by an xor basis keyed by
    leading bit."""
    basis: dict[int, int] = {}
    for row in rows:
        while row:
            top = row.bit_length() - 1
            if top not in basis:
                basis[top] = row
                break
            row ^= basis[top]
    return len(basis)


def check_dependencies(row_bits, dependencies) -> list[str]:
    """Each dependency's original rows XOR to zero, and there are exactly
    rows - rank of them."""
    bad = []
    for dep in dependencies:
        acc = 0
        for i in dep.row_indices:
            acc ^= row_bits[i]
        if acc:
            bad.append(f"dependency {sorted(dep.row_indices)} does not XOR to zero")
    nullity = len(row_bits) - gf2_rank(row_bits)
    if len(dependencies) != nullity:
        bad.append(f"{len(dependencies)} dependencies for a null space of dimension {nullity}")
    return bad
