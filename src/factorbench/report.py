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

TABLE_NAMES = (
    "failure-counts",
    "success-by-bitdiff",
    "avg-runtime",
    "head-to-head",
    "complexity",
)

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
    """Pair both algorithms on each n; flag n where the sieve strictly won.

    A sieve success beats a pollard failure outright; with two successes the
    comparison is on elapsed time. Values of n seen for only one algorithm
    are excluded and counted.
    """
    by_n: dict[int, dict[str, BenchRecord]] = {}
    for record in records:
        by_n.setdefault(record.semiprime.n, {})[record.outcome.algorithm] = record
    rows = []
    unmatched = 0
    for n in sorted(by_n):
        pair = by_n[n]
        if "pollard" not in pair or "qs" not in pair:
            unmatched += 1
            continue
        po, qo = pair["pollard"].outcome, pair["qs"].outcome
        if qo.status == "success" and po.status == "success":
            faster = qo.elapsed_seconds < po.elapsed_seconds
        else:
            faster = qo.status == "success" and po.status != "success"
        rows.append(HeadToHeadRow(pollard=pair["pollard"], qs=pair["qs"], qs_faster=faster))
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


def _render_failure_counts(lines, records, algorithm):
    stats = failure_counts(records, algorithm)
    lines.append(f"### {algorithm}")
    lines.append("")
    lines.append("| product bits | prime 1 bits | prime 2 bits | total | failures |")
    lines.append("|---|---|---|---|---|")
    if not stats:
        lines.append("| no data | | | | |")
    for s in stats:
        n_bits, p_bits, q_bits = s.key
        lines.append(f"| {n_bits} | {p_bits} | {q_bits} | {s.total} | {s.failures} |")
    lines.append("")


def _render_bitdiff_table(lines, stats, with_rate: bool):
    if with_rate:
        lines.append("| product bits | bit difference | total | successes | success fraction |")
        lines.append("|---|---|---|---|---|")
    else:
        lines.append("| product bits | bit difference | successes | mean seconds |")
        lines.append("|---|---|---|---|")
    if not stats:
        lines.append("| no data | | | |" + (" |" if with_rate else ""))
    # ascending product size, then largest bit difference first
    for s in sorted(stats, key=lambda s: (s.key[0], -s.key[1])):
        n_bits, diff = s.key
        if with_rate:
            lines.append(
                f"| {n_bits} | {diff} | {s.total} | {s.successes} | {s.success_fraction:.4f} |"
            )
        else:
            lines.append(
                f"| {n_bits} | {diff} | {s.successes} | {_fmt_mean(s.mean_elapsed_success)} |"
            )
    lines.append("")


def render_report(records: list[BenchRecord], tables: tuple[str, ...] = TABLE_NAMES) -> str:
    """Deterministic Markdown document with the selected tables."""
    bad = [t for t in tables if t not in TABLE_NAMES]
    if bad:
        raise ValueError(f"unknown tables {bad}; valid names: {', '.join(TABLE_NAMES)}")
    lines = ["# Factorization benchmark report", ""]
    if "failure-counts" in tables:
        lines.append("## Failure counts by factor combination")
        lines.append("")
        for algorithm in ALGORITHMS:
            _render_failure_counts(lines, records, algorithm)
    if "success-by-bitdiff" in tables:
        lines.append("## Success rate by bit difference")
        lines.append("")
        for algorithm in ALGORITHMS:
            lines.append(f"### {algorithm}")
            lines.append("")
            _render_bitdiff_table(lines, success_rate_by_bitdiff(records, algorithm), True)
    if "avg-runtime" in tables:
        lines.append("## Mean runtime of successes by bit difference")
        lines.append("")
        for algorithm in ALGORITHMS:
            lines.append(f"### {algorithm}")
            lines.append("")
            _render_bitdiff_table(lines, avg_runtime_by_bitdiff(records, algorithm), False)
    if "head-to-head" in tables:
        h2h = head_to_head(records)
        flagged = [r for r in h2h.rows if r.qs_faster]
        lines.append("## Products where the quadratic sieve beat pollard-rho")
        lines.append("")
        lines.append("| n | factor 1 | factor 2 | bits | pollard seconds | qs seconds |")
        lines.append("|---|---|---|---|---|---|")
        if not flagged:
            lines.append("| no data | | | | | |")
        for r in flagged:
            sp, po, qo = r.pollard.semiprime, r.pollard.outcome, r.qs.outcome
            lines.append(
                f"| {sp.n} | {sp.p} | {sp.q} | {sp.p_bits}/{sp.q_bits} "
                f"| {po.elapsed_seconds:.7f} ({po.status}) "
                f"| {qo.elapsed_seconds:.7f} ({qo.status}) |"
            )
        lines.append("")
        lines.append(
            f"{len(flagged)} of {len(h2h.rows)} paired products; "
            f"{h2h.unmatched} unmatched excluded."
        )
        lines.append("")
    if "complexity" in tables:
        lines.append("## Predicted cost models")
        lines.append("")
        lines.append(
            "Relative operation counts: 2^(bits/4) for pollard-rho against "
            "exp(sqrt(1.125 ln N ln ln N)) for the sieve. Constants are "
            "dropped, so only ratios and trends are meaningful."
        )
        lines.append("")
        lines.append("| product bits | pollard model | sieve model | ratio |")
        lines.append("|---|---|---|---|")
        for row in complexity_models(COMPLEXITY_DEFAULT_BITS):
            lines.append(
                f"| {row.n_bits} | {row.pollard_cost:.6e} | {row.qs_cost:.6e} "
                f"| {row.ratio:.6e} |"
            )
        lines.append("")
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
