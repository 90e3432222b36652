"""Benchmark harness: run both factoring algorithms over a dataset with
per-number time budgets and record the outcomes. `run_attempt` alone
calls the algorithms and maps how a call ended to a status: a returned
factor is `success`, and an `errors.FactorError` is its class's `status`;
any other exception is a bug and propagates.

Both algorithms share one entry rule: an n below 2 or wider than
`primegen.MAX_BITS` is a ValueError before any work (`primegen.check_n`),
and every prime, 2 and 3 included, is `errors.NotComposite`. Timeouts are
cooperative: each call checks one `errors.Deadline`, started at its entry,
at bounded intervals (rho after every batch of `pollard.BATCH` steps; the
sieve at the points `sieve.qs_factor`'s docstring lists), so a recorded
elapsed time may overshoot the budget by one polling interval.
Every record carries a seed derived from (config seed, row index,
algorithm), which makes results independent of worker scheduling.
"""

from __future__ import annotations

import math
import os
import time
from concurrent.futures import ProcessPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass, replace
from functools import partial
from pathlib import Path

from . import errors
from .pollard import RhoConfig, pollard_factor
from .primegen import (
    DATASET_CSV_HEADER,
    Semiprime,
    derive_seed,
    read_csv_rows,
    semiprime_from_row,
    semiprime_row,
    write_csv_rows,
)
from .sieve import QsParams, qs_factor

ALGORITHMS = ("pollard", "qs")
# "exhausted" comes last so that summaries keep their older prefix
STATUSES = ("success", "timeout", "error", "exhausted")

# Documented polling slack: a timed-out attempt's recorded elapsed time may
# exceed its budget by at most the work done between two deadline polls.
# At desk-scale inputs (products up to ~60 bits, budgets up to a few
# seconds) that is comfortably below this bound; very long budgets reach
# larger rounds whose final poll gap can be wider.
TIMEOUT_SLACK_SECONDS = 0.25

RESULTS_CSV_HEADER = DATASET_CSV_HEADER + [
    "algorithm", "status", "factor", "elapsed_seconds", "b_param", "m_param", "iterations", "seed"
]


@dataclass(frozen=True)
class FactorOutcome:
    """Result of one factorization attempt."""

    algorithm: str
    n: int
    status: str
    factor: int | None
    elapsed_seconds: float
    b_param: int | None
    m_param: int | None
    iterations: int
    seed: int


@dataclass(frozen=True)
class BenchRecord:
    semiprime: Semiprime
    outcome: FactorOutcome


@dataclass(frozen=True)
class BenchConfig:
    budget_seconds: float = 180.0
    algorithms: tuple[str, ...] = ALGORITHMS
    seed: int = 0
    workers: int = 1
    qs_params: QsParams = QsParams()

    def __post_init__(self):
        if not self.budget_seconds > 0:  # also rejects NaN
            raise ValueError("budget_seconds must be positive")
        if self.workers < 1:
            raise ValueError("workers must be >= 1")
        bad = [a for a in self.algorithms if a not in ALGORITHMS]
        if bad or not self.algorithms:
            raise ValueError(
                f"unknown algorithms {bad}; valid: a nonempty subset of {', '.join(ALGORITHMS)}"
            )
        if len(set(self.algorithms)) != len(self.algorithms):
            raise ValueError(f"repeated algorithms in {list(self.algorithms)}")


def run_attempt(
    algorithm: str,
    n: int,
    seed: int,
    budget_seconds: float,
    qs_params: QsParams | None = None,
) -> FactorOutcome:
    """One timed factorization; its ending becomes a status as the module
    docstring lists. Any other exception, a ValueError included, propagates
    with no outcome recorded: the algorithm raises one for an n outside
    the entry rule (below 2 or wider than `primegen.MAX_BITS`) before its
    unpolled primality screen, and for a budget that is not positive."""
    if algorithm not in ALGORITHMS:
        raise ValueError(f"unknown algorithm {algorithm!r}")
    start = time.monotonic()
    factor = None
    try:
        if algorithm == "pollard":
            factor, trace = pollard_factor(n, RhoConfig(seed=seed), budget_seconds)
        else:
            factor, trace = qs_factor(n, qs_params, budget_seconds)
        status = "success"
    except errors.FactorError as exc:
        status, trace = exc.status, exc.trace
    elapsed = time.monotonic() - start
    if algorithm == "pollard":
        iterations, b_param, m_param = trace.iterations, None, None
    else:
        iterations, b_param, m_param = trace.rounds, trace.final_b, trace.final_m
    outcome = FactorOutcome(
        algorithm=algorithm,
        n=n,
        status=status,
        factor=factor,
        elapsed_seconds=elapsed,
        b_param=b_param,
        m_param=m_param,
        iterations=iterations,
        seed=seed,
    )
    if _outcome_violation(outcome) is not None:
        # a bad factor is a bug in the algorithm: record it as an error without one
        outcome = replace(outcome, status="error", factor=None)
    return outcome


def _run_task(task) -> BenchRecord:
    semiprime, algorithm, seed, budget, qs_params = task
    outcome = run_attempt(algorithm, semiprime.n, seed, budget, qs_params)
    return BenchRecord(semiprime=semiprime, outcome=outcome)


def run_bench(
    dataset: list[Semiprime], cfg: BenchConfig, progress=None
) -> list[BenchRecord]:
    """One BenchRecord per (semiprime, algorithm), in dataset order.

    `progress` is an optional callable invoked with each finished record.
    """
    if not dataset:
        raise ValueError("dataset must be nonempty")
    budget, qs_params = cfg.budget_seconds, cfg.qs_params
    tasks = [
        (sp, algorithm, derive_seed(cfg.seed, row_index, algorithm), budget, qs_params)
        for row_index, sp in enumerate(dataset)
        for algorithm in cfg.algorithms
    ]
    records = []
    # the pool starts all its workers at once, so a worker count is never
    # more than there are tasks or CPUs to run them
    workers = min(cfg.workers, len(tasks), os.cpu_count() or 1)
    # map and pool.map both yield in task order
    with ProcessPoolExecutor(workers) if workers > 1 else nullcontext() as pool:
        for record in (pool.map if pool else map)(_run_task, tasks):
            records.append(record)
            if progress is not None:
                progress(record)
    return records


def _outcome_violation(out: FactorOutcome) -> str | None:
    """What breaks the factor rule in one outcome, or None: a success needs
    a factor strictly between 1 and n that divides n, and no other status
    may carry a factor."""
    if out.status != "success":
        return None if out.factor is None else f"status {out.status} carries a factor"
    if out.factor is None:
        return "success without a factor"
    if not 1 < out.factor < out.n:
        return f"factor {out.factor} out of range for {out.n}"
    if out.n % out.factor != 0:
        return f"{out.factor} does not divide {out.n}"
    return None


def verify_outcomes(records: list[BenchRecord]) -> list[str]:
    """Re-check every record's factor (see _outcome_violation); returns
    violation messages."""
    violations = []
    for i, record in enumerate(records):
        violation = _outcome_violation(record.outcome)
        if violation is not None:
            violations.append(f"record {i}: {violation}")
    return violations


def _record_row(record: BenchRecord) -> list:
    o = record.outcome
    # csv.writer writes None as an empty field
    return [
        *semiprime_row(record.semiprime),
        o.algorithm,
        o.status,
        o.factor,
        f"{o.elapsed_seconds:.7f}",
        o.b_param,
        o.m_param,
        o.iterations,
        o.seed,
    ]


def write_results_csv(path: str | Path, records: list[BenchRecord]) -> None:
    write_csv_rows(path, RESULTS_CSV_HEADER, map(_record_row, records))


def _record_from_row(
    row: dict[str, str], checked: dict[tuple[str, ...], Semiprime]
) -> BenchRecord:
    # each algorithm has a row per semiprime: check its dataset columns once
    columns = tuple(row[name] for name in DATASET_CSV_HEADER)
    semiprime = checked.get(columns)
    if semiprime is None:
        semiprime = checked[columns] = semiprime_from_row(row)
    if row["algorithm"] not in ALGORITHMS:
        raise ValueError(f"unknown algorithm {row['algorithm']!r}")
    if row["status"] not in STATUSES:
        raise ValueError(f"unknown status {row['status']!r}")
    outcome = FactorOutcome(
        algorithm=row["algorithm"],
        n=semiprime.n,
        status=row["status"],
        factor=int(row["factor"]) if row["factor"] else None,
        elapsed_seconds=float(row["elapsed_seconds"]),
        b_param=int(row["b_param"]) if row["b_param"] else None,
        m_param=int(row["m_param"]) if row["m_param"] else None,
        iterations=int(row["iterations"]),
        seed=int(row["seed"]),
    )
    if not 0 <= outcome.elapsed_seconds < math.inf:  # also rejects NaN
        raise ValueError(f"elapsed_seconds {row['elapsed_seconds']!r} is not finite and >= 0")
    if outcome.iterations < 0:
        raise ValueError(f"iterations {outcome.iterations} is below 0")
    b_param, m_param = outcome.b_param, outcome.m_param
    if outcome.algorithm == "pollard" and (b_param, m_param) != (None, None):
        raise ValueError("a pollard row carries no b_param or m_param")
    if (b_param is None) != (m_param is None):
        raise ValueError("a qs row carries both b_param and m_param or neither")
    if b_param is not None and (b_param < 2 or m_param < 1):
        raise ValueError(f"b_param {b_param} is below 2 or m_param {m_param} is below 1")
    violation = _outcome_violation(outcome)
    if violation is not None:
        raise ValueError(violation)
    return BenchRecord(semiprime=semiprime, outcome=outcome)


def read_results_csv(path: str | Path) -> list[BenchRecord]:
    """The records of a results CSV: dataset columns checked as
    read_dataset_csv checks them, once for each distinct set of them in the
    file, plus a known algorithm and status, a finite elapsed time of at
    least 0, at least 0 iterations, sieve settings only on a qs row and
    there both or neither (b_param >= 2, m_param >= 1), and a factor that
    _outcome_violation accepts."""
    return read_csv_rows(path, RESULTS_CSV_HEADER, partial(_record_from_row, checked={}))
