"""Command-line entry point: factor, gen-dataset, bench, and report.

Exit codes: 0 success, 1 usage, I/O, generation or verification error,
2 prime input, 3 timeout or exhausted search. `factor` and `bench` take
their seed from FACTORBENCH_SEED when --seed is absent, then 0;
`gen-dataset` uses the spec's own seed unless --seed overrides it.
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from pathlib import Path

from . import errors
from .arith import is_probable_prime
from .bench import (
    STATUSES,
    BenchConfig,
    read_results_csv,
    run_bench,
    verify_outcomes,
    write_results_csv,
)
from .pollard import RhoConfig, pollard_factor
from .primegen import generate_dataset, load_dataset_spec, read_dataset_csv, write_dataset_csv
from .report import TABLE_NAMES, points_csv, render_report
from .sieve import QsParams, qs_factor

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_PRIME = 2
EXIT_TIMEOUT = 3

DEFAULT_AUTO_THRESHOLD_BITS = 80


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on bad flags; the documented usage-error code is 1
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _default_seed(value: int | None) -> int:
    if value is not None:
        return value
    env = os.environ.get("FACTORBENCH_SEED")
    if env is None:
        return 0
    try:
        return int(env)
    except ValueError:
        raise ValueError(f"FACTORBENCH_SEED is not an integer: {env!r}") from None


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="factorbench", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_factor = sub.add_parser("factor", help="factor one number")
    p_factor.add_argument("n", help="positive integer >= 2, base 10")
    p_factor.add_argument("--algo", choices=["pollard", "qs", "auto"], default="auto")
    p_factor.add_argument("--timeout", type=float, default=180.0, help="seconds (default 180)")
    p_factor.add_argument("--seed", type=int, default=None)
    p_factor.add_argument("--b", type=int, default=None, help="sieve smooth bound start")
    p_factor.add_argument("--m", type=int, default=None, help="sieve scan window start")
    p_factor.add_argument(
        "--auto-threshold",
        type=int,
        default=DEFAULT_AUTO_THRESHOLD_BITS,
        help="bit length at which auto switches from pollard to the sieve",
    )

    p_gen = sub.add_parser("gen-dataset", help="generate a semiprime dataset CSV")
    p_gen.add_argument("--spec", required=True, help="JSON dataset description")
    p_gen.add_argument("--out", required=True, help="output CSV path")
    p_gen.add_argument("--seed", type=int, default=None, help="override the seed in the JSON file")

    p_bench = sub.add_parser("bench", help="run the algorithms over a dataset CSV")
    p_bench.add_argument("--dataset", required=True)
    p_bench.add_argument("--out", required=True, help="results CSV path")
    p_bench.add_argument(
        "--algos", default="pollard,qs", help="comma-separated subset of: pollard,qs"
    )
    p_bench.add_argument("--timeout", type=float, default=180.0, help="seconds per attempt")
    p_bench.add_argument("--workers", type=int, default=1)
    p_bench.add_argument("--seed", type=int, default=None)
    p_bench.add_argument("--progress", action="store_true", help="print one line per attempt")

    p_report = sub.add_parser("report", help="render Markdown tables from results CSV")
    p_report.add_argument("--results", required=True)
    p_report.add_argument("--out", required=True, help="Markdown output path")
    p_report.add_argument(
        "--tables", default=",".join(TABLE_NAMES), help=f"subset of: {','.join(TABLE_NAMES)}"
    )
    p_report.add_argument("--points-csv", default=None, help="optional scatter CSV path")
    return parser


def _cmd_factor(args) -> int:
    try:
        n = int(args.n, 10)
    except ValueError:
        print(f"not a base-10 integer: {args.n!r}", file=sys.stderr)
        return EXIT_USAGE
    if n < 2:
        print(f"nothing to factor below 2: {n}", file=sys.stderr)
        return EXIT_USAGE
    try:
        if args.timeout <= 0:
            raise ValueError("timeout must be positive")
        seed = _default_seed(args.seed)
        qs_params = QsParams(
            b_bound=args.b if args.b is not None else QsParams.b_bound,
            m_count=args.m if args.m is not None else QsParams.m_count,
        )
    except ValueError as exc:
        print(exc, file=sys.stderr)
        return EXIT_USAGE
    if is_probable_prime(n):
        print(f"{n} is prime")
        return EXIT_PRIME
    algo = args.algo
    if algo == "auto":
        algo = "pollard" if n.bit_length() < args.auto_threshold else "qs"
    start = time.monotonic()
    try:
        if algo == "pollard":
            factor, _ = pollard_factor(n, RhoConfig(seed=seed), args.timeout)
        else:
            factor, _ = qs_factor(n, qs_params, args.timeout)
    except errors.PerfectSquare as exc:
        factor = exc.root
    except errors.BudgetExceeded:
        print(f"timeout: no factor of {n} within {args.timeout} s")
        return EXIT_TIMEOUT
    except (errors.RestartsExhausted, errors.RoundsExhausted) as exc:
        print(f"gave up: {exc}")
        return EXIT_TIMEOUT
    except errors.NotComposite:
        print(f"{n} is prime")
        return EXIT_PRIME
    elapsed = time.monotonic() - start
    cofactor = n // factor
    p, q = min(factor, cofactor), max(factor, cofactor)
    print(f"{n} = {p} * {q}")
    print(f"elapsed_seconds {elapsed:.7f}")
    return EXIT_OK


def _cmd_gen_dataset(args) -> int:
    try:
        spec = load_dataset_spec(args.spec, seed_override=args.seed)
    except (OSError, ValueError, KeyError, TypeError) as exc:
        print(f"invalid dataset spec {args.spec}: {exc}", file=sys.stderr)
        return EXIT_USAGE
    try:
        rows = generate_dataset(spec)
    except errors.GenerationError as exc:
        print(f"cannot generate {args.spec}: {exc}", file=sys.stderr)
        return EXIT_USAGE
    try:
        write_dataset_csv(args.out, rows)
    except OSError as exc:
        print(f"cannot write {args.out}: {exc}", file=sys.stderr)
        return EXIT_USAGE
    print(f"{len(rows)} semiprimes written to {args.out}")
    return EXIT_OK


def _cmd_bench(args) -> int:
    try:
        cfg = BenchConfig(
            budget_seconds=args.timeout,
            algorithms=tuple(a.strip() for a in args.algos.split(",") if a.strip()),
            seed=_default_seed(args.seed),
            workers=args.workers,
        )
    except ValueError as exc:
        print(exc, file=sys.stderr)
        return EXIT_USAGE
    try:
        dataset = read_dataset_csv(args.dataset)
    except (OSError, ValueError) as exc:
        print(f"cannot read dataset {args.dataset}: {exc}", file=sys.stderr)
        return EXIT_USAGE
    if not dataset:
        print(f"dataset {args.dataset} has no rows", file=sys.stderr)
        return EXIT_USAGE
    done = [0]

    def progress(record):
        done[0] += 1
        if args.progress:
            o = record.outcome
            print(
                f"[{done[0]}/{len(dataset) * len(cfg.algorithms)}] {o.algorithm} n={o.n} "
                f"{o.status} {o.elapsed_seconds:.3f}s",
                flush=True,
            )

    records = run_bench(dataset, cfg, progress=progress)
    violations = verify_outcomes(records)
    if violations:
        print("\n".join(violations), file=sys.stderr)
        return EXIT_USAGE
    try:
        write_results_csv(args.out, records)
    except OSError as exc:
        print(f"cannot write {args.out}: {exc}", file=sys.stderr)
        return EXIT_USAGE
    for algorithm in cfg.algorithms:
        counts = dict.fromkeys(STATUSES, 0)
        for record in records:
            if record.outcome.algorithm == algorithm:
                counts[record.outcome.status] += 1
        summary = " ".join(f"{k}={v}" for k, v in counts.items())
        print(f"{algorithm}: {summary}")
    print(f"{len(records)} records written to {args.out}")
    return EXIT_OK


def _cmd_report(args) -> int:
    tables = tuple(t.strip() for t in args.tables.split(",") if t.strip())
    if not tables:
        print(f"no tables given; valid: {', '.join(TABLE_NAMES)}", file=sys.stderr)
        return EXIT_USAGE
    try:
        records = read_results_csv(args.results)
    except (OSError, ValueError) as exc:
        print(f"cannot read results {args.results}: {exc}", file=sys.stderr)
        return EXIT_USAGE
    try:
        document = render_report(records, tables)
    except ValueError as exc:
        print(exc, file=sys.stderr)
        return EXIT_USAGE
    try:
        Path(args.out).write_text(document, encoding="utf-8")
        if args.points_csv:
            Path(args.points_csv).write_text(points_csv(records), encoding="utf-8")
    except OSError as exc:
        print(f"cannot write report output: {exc}", file=sys.stderr)
        return EXIT_USAGE
    print(f"report written to {args.out}")
    return EXIT_OK


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    handlers = {
        "factor": _cmd_factor,
        "gen-dataset": _cmd_gen_dataset,
        "bench": _cmd_bench,
        "report": _cmd_report,
    }
    return handlers[args.command](args)


if __name__ == "__main__":
    sys.exit(main())
