"""Seeded generation of primes and semiprime benchmark datasets.

Datasets are described by a DatasetSpec (loadable from JSON) and serialized
as CSV. Generation is fully deterministic for a fixed spec: each group gets
its own generator derived from the base seed, so groups can be produced in
any order or in parallel without changing the output. The CSV reader and
writer here also serve the results CSV, whose rows start with the dataset
columns.
"""

from __future__ import annotations

import csv
import hashlib
import json
import operator
import random
from dataclasses import dataclass, field, fields
from pathlib import Path

from .arith import is_probable_prime
from .errors import GenerationError

# Resampling cap for exact product bit lengths. The product of a-bit and
# b-bit integers has a+b or a+b-1 bits, so per-attempt success probability
# is far above 1/2 and the cap is only ever hit on unsatisfiable requests.
MAX_RESAMPLE_ATTEMPTS = 10_000

# Draws of one random prime. An odd b-bit candidate is prime with
# probability about 2 / (b ln 2), which falls with b: about 1 in 177 at 512
# bits, wider than any prime a spec can ask for, so 10 000 draws all miss
# with probability about (1 - 1/177)**10_000, or 3e-25.
MAX_PRIME_DRAWS = 10_000

# Widest n the program takes in: a spec's product, a CSV row's n or the
# number handed to `factor`. Far above any committed spec, it keeps a random
# group's list of admissible (p_bits, q_bits) pairs, about MAX_BITS**2 / 2
# of them, a fixed group's prime search and every unpolled primality test
# small.
MAX_BITS = 512

# Most rows a parsed spec may ask for, summed over its groups' counts. The
# slowest groups accepted are 512-bit products with a prime of 2 to 48 bits:
# on a 2-core VM with Python 3.11.7 each generated 11-16 rows per CPU second,
# and wider splits ran faster. At 11 rows/s the largest spec accepted
# generates in about 15 minutes.
MAX_SPEC_ROWS = 10_000

DATASET_CSV_HEADER = ["n", "p", "q", "p_bits", "q_bits", "n_bits"]


def check_n_bits(n_bits: int) -> None:
    """A ValueError for a width above MAX_BITS."""
    if n_bits > MAX_BITS:
        raise ValueError(f"n_bits must be <= {MAX_BITS}, got {n_bits}")


def check_n(n: int) -> None:
    """The factoring algorithms' entry rule: a ValueError for n below 2 or
    wider than MAX_BITS, checked before any primality test of n."""
    if n < 2:
        raise ValueError("n must be >= 2")
    check_n_bits(n.bit_length())


def derive_seed(base: int, *parts) -> int:
    """Fold identifying parts into a base seed, stably across platforms."""
    text = ":".join([str(base), *(str(p) for p in parts)])
    digest = hashlib.sha256(text.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


@dataclass(frozen=True)
class Semiprime:
    """A generated test composite with its two known prime factors."""

    n: int
    p: int
    q: int
    p_bits: int
    q_bits: int
    n_bits: int

    def __post_init__(self):
        if self.p > self.q:
            raise ValueError("factors must be ordered p <= q")
        if self.p * self.q != self.n:
            raise ValueError("p * q != n")
        if (self.p.bit_length(), self.q.bit_length(), self.n.bit_length()) != (
            self.p_bits,
            self.q_bits,
            self.n_bits,
        ):
            raise ValueError("recorded bit lengths disagree with the values")

    @property
    def bit_difference(self) -> int:
        return abs(self.p_bits - self.q_bits)


def make_semiprime(p: int, q: int) -> Semiprime:
    """Canonicalize factor order and fill in the bit-length fields."""
    if p > q:
        p, q = q, p
    return Semiprime(p * q, p, q, p.bit_length(), q.bit_length(), (p * q).bit_length())


@dataclass(frozen=True)
class FixedGroup:
    count: int
    p_bits: int
    q_bits: int
    n_bits: int

    def __post_init__(self):
        if self.count < 1:
            raise ValueError("count must be >= 1")
        if self.p_bits + self.q_bits != self.n_bits:
            raise ValueError(
                f"p_bits + q_bits must equal n_bits (got {self.p_bits}+{self.q_bits} != {self.n_bits})"
            )
        if min(self.p_bits, self.q_bits) < 2:
            raise ValueError("prime bit lengths must be >= 2")
        check_n_bits(self.n_bits)  # p_bits and q_bits are then below it too


@dataclass(frozen=True)
class RandomGroup:
    count: int
    max_product_bits: int

    def __post_init__(self):
        if self.count < 1:
            raise ValueError("count must be >= 1")
        if self.max_product_bits < 5:
            # below 5 bits the only admissible pair would be 2-bit times 2-bit: 3 * 3
            raise ValueError("max_product_bits must be >= 5")
        if self.max_product_bits > MAX_BITS:
            raise ValueError(f"max_product_bits must be <= {MAX_BITS}, got {self.max_product_bits}")


@dataclass(frozen=True)
class DatasetSpec:
    seed: int
    groups: tuple[FixedGroup, ...] = field(default_factory=tuple)
    random_groups: tuple[RandomGroup, ...] = field(default_factory=tuple)


def random_prime(bits: int, rng: random.Random) -> int:
    """A prime with exactly `bits` bits (see is_probable_prime for how exact).

    Candidates have the top bit forced to 1 (exact width) and the low bit
    forced to 1 (odd), and are retried until one passes the primality test,
    for at most MAX_PRIME_DRAWS draws; past that it is a GenerationError.
    """
    if bits < 2:
        raise ValueError("bits must be >= 2")
    for _ in range(MAX_PRIME_DRAWS):
        candidate = rng.getrandbits(bits) | (1 << (bits - 1)) | 1
        if is_probable_prime(candidate):
            return candidate
    raise GenerationError(f"no {bits}-bit prime in {MAX_PRIME_DRAWS} draws")


def random_semiprime(
    p_bits: int, q_bits: int, n_bits: int | None, rng: random.Random
) -> Semiprime:
    """A semiprime of two distinct primes of p_bits and q_bits bits.

    Both primes are resampled together until they differ and, unless
    n_bits is None (any product width), until the product carries into
    exactly n_bits bits.
    """
    if n_bits is not None and p_bits + q_bits != n_bits:
        raise ValueError("p_bits + q_bits must equal n_bits")
    for _ in range(MAX_RESAMPLE_ATTEMPTS):
        p = random_prime(p_bits, rng)
        q = random_prime(q_bits, rng)
        if p != q and (n_bits is None or (p * q).bit_length() == n_bits):
            return make_semiprime(p, q)
    product = "" if n_bits is None else f"{n_bits}-bit product of "
    raise GenerationError(
        f"no {product}distinct {p_bits}/{q_bits}-bit primes after {MAX_RESAMPLE_ATTEMPTS} attempts"
    )


def _admissible_pairs(max_product_bits: int) -> list[tuple[int, int]]:
    """(p_bits, q_bits) pairs whose product can never exceed max_product_bits.

    (2, 2) is left out: 3 is the only 2-bit prime, so it has no distinct pair.
    """
    return [
        (pb, qb)
        for pb in range(2, max_product_bits - 1)
        for qb in range(2, max_product_bits - 1)
        if pb + qb <= max_product_bits and (pb, qb) != (2, 2)
    ]


def generate_dataset(spec: DatasetSpec) -> list[Semiprime]:
    """All groups in spec order, deterministic for a fixed spec."""
    out: list[Semiprime] = []
    for gi, group in enumerate(spec.groups):
        rng = random.Random(derive_seed(spec.seed, "group", gi))
        for _ in range(group.count):
            out.append(random_semiprime(group.p_bits, group.q_bits, group.n_bits, rng))
    for gi, group in enumerate(spec.random_groups):
        rng = random.Random(derive_seed(spec.seed, "random", gi))
        pairs = _admissible_pairs(group.max_product_bits)
        for _ in range(group.count):
            pb, qb = pairs[rng.randrange(len(pairs))]
            out.append(random_semiprime(pb, qb, None, rng))
    return out


def load_dataset_spec(path: str | Path) -> DatasetSpec:
    """Parse a DatasetSpec from its JSON document form."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except RecursionError:
            raise ValueError("JSON nests too deeply to parse") from None
    return dataset_spec_from_dict(doc)


def _parse_groups(doc: dict, key: str, group_cls) -> tuple:
    names = [f.name for f in fields(group_cls)]
    entries = doc.get(key, [])
    if not isinstance(entries, list):
        raise ValueError(f"'{key}' must be a list")
    for i, entry in enumerate(entries):
        if not isinstance(entry, dict) or set(entry) != set(names):
            raise ValueError(f"{key}[{i}] must be an object with exactly the keys {names}")
        for name in names:
            if type(entry[name]) is not int:  # bool is an int subclass
                raise ValueError(f"{key}[{i}].{name} must be an integer, got {entry[name]!r}")
    return tuple(group_cls(**entry) for entry in entries)


def dataset_spec_from_dict(doc: dict) -> DatasetSpec:
    """Validate a spec document; every rejection is a ValueError naming the field."""
    if not isinstance(doc, dict):
        raise ValueError("dataset spec must be a JSON object")
    unknown = set(doc) - {"seed", "groups", "random_groups"}
    if unknown:
        raise ValueError(f"unknown dataset spec keys: {sorted(unknown)}")
    seed = doc.get("seed")
    if type(seed) is not int:
        raise ValueError(f"dataset spec needs an integer 'seed', got {seed!r}")
    groups = _parse_groups(doc, "groups", FixedGroup)
    random_groups = _parse_groups(doc, "random_groups", RandomGroup)
    rows = sum(group.count for group in groups + random_groups)
    if rows > MAX_SPEC_ROWS:
        raise ValueError(f"the groups' count fields must sum to <= {MAX_SPEC_ROWS}, got {rows}")
    return DatasetSpec(seed, groups, random_groups)


def semiprime_from_row(row: dict[str, str]) -> Semiprime:
    """The Semiprime in a CSV row's dataset columns; a row that is not a
    valid Semiprime of two primes, or whose n is wider than MAX_BITS, is a
    ValueError."""
    s = Semiprime(**{name: int(row[name]) for name in DATASET_CSV_HEADER})
    check_n_bits(s.n_bits)  # before the primality tests, whose cost grows with it
    for name, value in (("p", s.p), ("q", s.q)):
        if not is_probable_prime(value):
            raise ValueError(f"{name} = {value} is not prime")
    return s


# the dataset columns of a CSV row, inverse of semiprime_from_row
semiprime_row = operator.attrgetter(*DATASET_CSV_HEADER)


def write_csv_rows(path: str | Path, header: list[str], rows) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def read_csv_rows(path: str | Path, header: list[str], parse_row) -> list:
    """`parse_row(row)` of each row of a CSV file whose header is `header`,
    where `row` maps each column name to its field. A malformed file is a
    ValueError naming its line, whether the fault is a field count, an
    unparseable field or a ValueError from `parse_row`."""
    out = []
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.DictReader(fh)
        try:
            if reader.fieldnames != header:
                raise ValueError(f"unexpected header: {reader.fieldnames}")
            for row in reader:
                # DictReader files a long row's extra fields under None and
                # fills a short row's missing ones with None
                if None in row or None in row.values():
                    raise ValueError(f"expected {len(header)} fields")
                out.append(parse_row(row))
        except (ValueError, csv.Error) as exc:
            # the inner reader's count: DictReader's lags on a csv.Error
            raise ValueError(f"line {reader.reader.line_num}: {exc}") from None
    return out


def write_dataset_csv(path: str | Path, semiprimes: list[Semiprime]) -> None:
    write_csv_rows(path, DATASET_CSV_HEADER, map(semiprime_row, semiprimes))


def read_dataset_csv(path: str | Path) -> list[Semiprime]:
    """The rows of a dataset CSV, each checked by semiprime_from_row."""
    return read_csv_rows(path, DATASET_CSV_HEADER, semiprime_from_row)
