"""Aggregations over benchmark results: failure counts, success rates and
mean runtimes by bit difference, pollard-vs-sieve head-to-head, and the
theoretical cost models.

Mean runtimes cover successful attempts only; a budget cutoff says nothing
useful about how long the factorization would have taken. All renderings
are deterministic: fixed orderings, fixed float formats.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .bench import ALGORITHMS, BenchRecord

COMPLEXITY_DEFAULT_BITS = tuple(range(40, 121, 8))


@dataclass(frozen=True)
class GroupStat:
    """Per-group tallies; key is (n_bits, p_bits, q_bits) or (n_bits, bit_difference)."""

    key: tuple[int, ...]
    total: int
    successes: int
    failures: int
    success_fraction: float
    mean_elapsed_success: float | None


@dataclass(frozen=True)
class HeadToHeadRow:
    pollard: BenchRecord
    qs: BenchRecord
    qs_faster: bool


@dataclass(frozen=True)
class HeadToHead:
    rows: tuple[HeadToHeadRow, ...]
    unmatched: int


@dataclass(frozen=True)
class ComplexityRow:
    n_bits: int
    pollard_cost: float
    qs_cost: float
    ratio: float


def _group(records, algorithm, key_fn) -> list[GroupStat]:
    buckets: dict[tuple[int, ...], list[BenchRecord]] = {}
    for record in records:
        if record.outcome.algorithm != algorithm:
            continue
        buckets.setdefault(key_fn(record), []).append(record)
    stats = []
    for key in sorted(buckets):
        group = buckets[key]
        successes = [r for r in group if r.outcome.status == "success"]
        mean = (
            sum(r.outcome.elapsed_seconds for r in successes) / len(successes)
            if successes
            else None
        )
        stats.append(
            GroupStat(
                key=key,
                total=len(group),
                successes=len(successes),
                failures=len(group) - len(successes),
                success_fraction=len(successes) / len(group),
                mean_elapsed_success=mean,
            )
        )
    return stats


def failure_counts(records: list[BenchRecord], algorithm: str) -> list[GroupStat]:
    """Grouped by (n_bits, p_bits, q_bits); failures = anything but success."""
    return _group(
        records,
        algorithm,
        lambda r: (r.semiprime.n_bits, r.semiprime.p_bits, r.semiprime.q_bits),
    )


def success_rate_by_bitdiff(records: list[BenchRecord], algorithm: str) -> list[GroupStat]:
    """Grouped by (n_bits, bit_difference); each stat carries both the success
    fraction and the mean runtime of successes."""
    return _group(
        records, algorithm, lambda r: (r.semiprime.n_bits, r.semiprime.bit_difference)
    )


# the success-rate and mean-runtime tables read different fields of one grouping
avg_runtime_by_bitdiff = success_rate_by_bitdiff


def head_to_head(records: list[BenchRecord]) -> HeadToHead:
    """Pair both algorithms on each n; flag pairs where the sieve strictly won.

    The i-th pollard record of an n pairs with the i-th qs record of that n,
    in record order, so a product that repeats in the dataset gives one pair
    per repeat. Records left without a partner are excluded and counted.
    A sieve success beats a pollard failure outright; with two successes the
    comparison is on elapsed time.
    """
    runs: dict[tuple[int, str], list[BenchRecord]] = {}
    for record in records:
        runs.setdefault((record.semiprime.n, record.outcome.algorithm), []).append(record)
    rows = []
    unmatched = 0
    for n in sorted({n for n, _ in runs}):
        pollards, sieves = runs.get((n, "pollard"), []), runs.get((n, "qs"), [])
        unmatched += abs(len(pollards) - len(sieves))
        for pollard, qs in zip(pollards, sieves):
            po, qo = pollard.outcome, qs.outcome
            if qo.status == "success" and po.status == "success":
                faster = qo.elapsed_seconds < po.elapsed_seconds
            else:
                faster = qo.status == "success" and po.status != "success"
            rows.append(HeadToHeadRow(pollard=pollard, qs=qs, qs_faster=faster))
    return HeadToHead(rows=tuple(rows), unmatched=unmatched)


def complexity_models(n_bits_range) -> list[ComplexityRow]:
    """Predicted relative costs: fourth-root-of-N steps for rho against
    exp(sqrt(1.125 ln N ln ln N)) for the sieve, with N = 2**n_bits."""
    rows = []
    for bits in n_bits_range:
        if bits < 8:
            raise ValueError("n_bits must be >= 8")
        ln_n = bits * math.log(2.0)
        pollard_cost = 2.0 ** (bits / 4.0)
        qs_cost = math.exp(math.sqrt(1.125 * ln_n * math.log(ln_n)))
        rows.append(
            ComplexityRow(
                n_bits=bits,
                pollard_cost=pollard_cost,
                qs_cost=qs_cost,
                ratio=pollard_cost / qs_cost,
            )
        )
    return rows


def _fmt_mean(mean: float | None) -> str:
    return "-" if mean is None else f"{mean:.7f}"


def _table(lines, header, rows):
    """Append one Markdown table and a blank line; the only writer of table
    syntax. An empty `rows` gets a "no data" row as wide as the header."""
    lines.append("| " + " | ".join(header) + " |")
    lines.append("|" + "---|" * len(header))
    if not rows:
        lines.append("| no data |" + " |" * (len(header) - 1))
    lines.extend("| " + " | ".join(map(str, row)) + " |" for row in rows)
    lines.append("")


def _by_bitdiff(records, algorithm):
    # ascending product size, then largest bit difference first
    stats = success_rate_by_bitdiff(records, algorithm)
    return sorted(stats, key=lambda s: (s.key[0], -s.key[1]))


def _per_algorithm(title, header, rows):
    """A section with one table per algorithm; `rows(records, algorithm)`
    gives that algorithm's rows."""

    def section(lines, records):
        lines += [f"## {title}", ""]
        for algorithm in ALGORITHMS:
            lines += [f"### {algorithm}", ""]
            _table(lines, header, rows(records, algorithm))

    return section


def _head_to_head_section(lines, records):
    h2h = head_to_head(records)
    rows = []
    for r in h2h.rows:
        if r.qs_faster:
            sp = r.pollard.semiprime
            times = [f"{o.elapsed_seconds:.7f} ({o.status})" for o in (r.pollard.outcome, r.qs.outcome)]
            rows.append((sp.n, sp.p, sp.q, f"{sp.p_bits}/{sp.q_bits}", *times))
    lines += ["## Products where the quadratic sieve beat pollard-rho", ""]
    _table(lines, ("n", "factor 1", "factor 2", "bits", "pollard seconds", "qs seconds"), rows)
    lines += [
        f"{len(rows)} of {len(h2h.rows)} paired products; {h2h.unmatched} unmatched excluded.",
        "",
    ]


def _complexity_section(lines, records):
    lines += [
        "## Predicted cost models",
        "",
        "Relative operation counts: 2^(bits/4) for pollard-rho against "
        "exp(sqrt(1.125 ln N ln ln N)) for the sieve. Constants are "
        "dropped, so only ratios and trends are meaningful.",
        "",
    ]
    _table(
        lines,
        ("product bits", "pollard model", "sieve model", "ratio"),
        [
            (row.n_bits, f"{row.pollard_cost:.6e}", f"{row.qs_cost:.6e}", f"{row.ratio:.6e}")
            for row in complexity_models(COMPLEXITY_DEFAULT_BITS)
        ],
    )


# each report section by its table name, in the order a report prints them
_SECTIONS = {
    "failure-counts": _per_algorithm(
        "Failure counts by factor combination",
        ("product bits", "prime 1 bits", "prime 2 bits", "total", "failures"),
        lambda records, algorithm: [
            (*s.key, s.total, s.failures) for s in failure_counts(records, algorithm)
        ],
    ),
    "success-by-bitdiff": _per_algorithm(
        "Success rate by bit difference",
        ("product bits", "bit difference", "total", "successes", "success fraction"),
        lambda records, algorithm: [
            (*s.key, s.total, s.successes, f"{s.success_fraction:.4f}")
            for s in _by_bitdiff(records, algorithm)
        ],
    ),
    "avg-runtime": _per_algorithm(
        "Mean runtime of successes by bit difference",
        ("product bits", "bit difference", "successes", "mean seconds"),
        lambda records, algorithm: [
            (*s.key, s.successes, _fmt_mean(s.mean_elapsed_success))
            for s in _by_bitdiff(records, algorithm)
        ],
    ),
    "head-to-head": _head_to_head_section,
    "complexity": _complexity_section,
}
TABLE_NAMES = tuple(_SECTIONS)


def render_report(records: list[BenchRecord], tables: tuple[str, ...] = TABLE_NAMES) -> str:
    """Deterministic Markdown document with the selected tables."""
    bad = [t for t in tables if t not in TABLE_NAMES]
    if bad:
        raise ValueError(f"unknown tables {bad}; valid names: {', '.join(TABLE_NAMES)}")
    lines = ["# Factorization benchmark report", ""]
    for name, section in _SECTIONS.items():
        if name in tables:
            section(lines, records)
    return "\n".join(lines)


def points_csv(records: list[BenchRecord]) -> str:
    """Scatter export: one line per record, ready for any plotting tool."""
    lines = ["n_bits,algorithm,elapsed_seconds,status"]
    for record in records:
        o = record.outcome
        lines.append(
            f"{record.semiprime.n_bits},{o.algorithm},{o.elapsed_seconds:.7f},{o.status}"
        )
    return "\n".join(lines) + "\n"
