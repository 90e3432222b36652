"""Command-line entry point: factor, gen-dataset, bench, and report.

Exit codes: 0 success, 1 usage, I/O, generation or verification error,
2 prime input, 3 timeout or exhausted search. `factor` exits by the status
of its `bench.run_attempt` call: a spent budget is `timeout`, a round or
restart cap `exhausted`, a perfect square `success`, a bad factor `error`
(exit 1, one line on stderr); anything else propagates. `factor --algo
auto` runs pollard below DEFAULT_AUTO_THRESHOLD_BITS bits and the sieve
from there.
Every setting is on the command line, and no environment variable is read.
`factor` and `bench` share --timeout and --seed, whose defaults are
`BenchConfig`'s, as are `bench`'s other defaults and algorithm names;
`gen-dataset` uses the spec's own seed unless --seed overrides it.
`factor` checks n by `primegen.check_n` and, like `bench`, its budget by
`BenchConfig`, so a rejection prints the library's own text. `factor` and
`bench` run the sieve at `QsParams()`'s defaults; `report` renders every
table.
A usage, I/O, generation or verification failure is raised where it
happens and reported once by `main`: its message on stderr, exit 1. A
stdout closed by its reader ends the command at its next write with exit
1 and no message. Every other exception propagates with its traceback.
`report` renders its Markdown and the optional points CSV before it writes
either, and removes what it wrote when a later write fails, so a failed
call leaves no output.
"""

from __future__ import annotations

import argparse
import itertools
import os
import sys
from collections import Counter
from contextlib import ExitStack, contextmanager
from pathlib import Path

from . import errors
from .arith import is_probable_prime
from .bench import (
    ALGORITHMS,
    STATUSES,
    BenchConfig,
    read_results_csv,
    run_attempt,
    run_bench,
    verify_outcomes,
    write_results_csv,
)
from .primegen import (
    check_n, generate_dataset, load_dataset_spec, read_dataset_csv, write_dataset_csv
)
from .report import points_csv, render_report

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_PRIME = 2
EXIT_TIMEOUT = 3

# primes are screened out first, so `error` here means a bad factor: a bug
EXIT_CODES = dict(success=EXIT_OK, timeout=EXIT_TIMEOUT, error=EXIT_USAGE, exhausted=EXIT_TIMEOUT)

DEFAULT_AUTO_THRESHOLD_BITS = 80


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on bad flags; the documented usage-error code is 1
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


class _Usage(Exception):
    """A usage, input or I/O failure: `main` prints the message to stderr
    and exits EXIT_USAGE."""


@contextmanager
def _usage_on(prefix: str, *types: type[Exception]):
    """Re-raise any of `types` raised in the block as _Usage, its message
    after `prefix`."""
    try:
        yield
    except types as exc:
        raise _Usage(f"{prefix}{exc}") from exc


def _names(text: str) -> tuple[str, ...]:
    """The nonblank items of a comma-separated list, stripped."""
    return tuple(name.strip() for name in text.split(",") if name.strip())


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="factorbench", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    run = argparse.ArgumentParser(add_help=False)  # the settings factor and bench share
    run.add_argument("--timeout", type=float, default=BenchConfig.budget_seconds, help="seconds")
    run.add_argument("--seed", type=int, default=BenchConfig.seed)

    p_factor = sub.add_parser("factor", parents=[run], help="factor one number")
    p_factor.set_defaults(handler=_cmd_factor)
    p_factor.add_argument("n", help="positive integer >= 2, base 10")
    p_factor.add_argument("--algo", choices=[*ALGORITHMS, "auto"], default="auto")

    p_gen = sub.add_parser("gen-dataset", help="generate a semiprime dataset CSV")
    p_gen.set_defaults(handler=_cmd_gen_dataset)
    p_gen.add_argument("--spec", required=True, help="JSON dataset description")
    p_gen.add_argument("--out", required=True, help="output CSV path")
    p_gen.add_argument("--seed", type=int, default=None, help="override the seed in the JSON file")

    p_bench = sub.add_parser("bench", parents=[run], help="run the algorithms over a dataset CSV")
    p_bench.set_defaults(handler=_cmd_bench)
    p_bench.add_argument("--dataset", required=True)
    p_bench.add_argument("--out", required=True, help="results CSV path")
    algos = ",".join(ALGORITHMS)
    p_bench.add_argument("--algos", default=algos, help=f"comma-separated subset of: {algos}")
    p_bench.add_argument("--workers", type=int, default=BenchConfig.workers)
    p_bench.add_argument("--progress", action="store_true", help="print one line per attempt")

    p_report = sub.add_parser("report", help="render Markdown tables from results CSV")
    p_report.set_defaults(handler=_cmd_report)
    p_report.add_argument("--results", required=True)
    p_report.add_argument("--out", required=True, help="Markdown output path")
    p_report.add_argument("--points-csv", default=None, help="optional scatter CSV path")
    return parser


def _cmd_factor(args) -> int:
    with _usage_on("", ValueError):
        n = int(args.n, 10)
        check_n(n)
        algo = args.algo
        if algo == "auto":
            algo = "pollard" if n.bit_length() < DEFAULT_AUTO_THRESHOLD_BITS else "qs"
        cfg = BenchConfig(budget_seconds=args.timeout, algorithms=(algo,), seed=args.seed)
    if is_probable_prime(n):
        print(f"{n} is prime")
        return EXIT_PRIME
    outcome = run_attempt(algo, n, cfg.seed, cfg.budget_seconds, cfg.qs_params)
    if outcome.status == "success":
        p, q = sorted((outcome.factor, n // outcome.factor))
        # one write, so a reader that takes the first line and closes the
        # pipe cannot do so between the two
        sys.stdout.write(f"{n} = {p} * {q}\nelapsed_seconds {outcome.elapsed_seconds:.7f}\n")
    elif outcome.status == "timeout":
        print(f"timeout: no factor of {n} within {cfg.budget_seconds} s")
    elif outcome.status == "exhausted":
        print(f"gave up: {algo} found no factor of {n} (iterations={outcome.iterations})")
    elif outcome.status == "error":
        print(f"error: {algo} returned an invalid factor of {n}", file=sys.stderr)
    return EXIT_CODES[outcome.status]


def _cmd_gen_dataset(args) -> int:
    with _usage_on(f"invalid dataset spec {args.spec}: ", OSError, ValueError):
        spec = load_dataset_spec(args.spec, seed_override=args.seed)
    with _usage_on(f"cannot generate {args.spec}: ", errors.GenerationError):
        rows = generate_dataset(spec)
    with _usage_on(f"cannot write {args.out}: ", OSError):
        write_dataset_csv(args.out, rows)
    print(f"{len(rows)} semiprimes written to {args.out}")
    return EXIT_OK


def _cmd_bench(args) -> int:
    with _usage_on("", ValueError):
        cfg = BenchConfig(
            budget_seconds=args.timeout,
            algorithms=_names(args.algos),
            seed=args.seed,
            workers=args.workers,
        )
    with _usage_on(f"cannot read dataset {args.dataset}: ", OSError, ValueError):
        dataset = read_dataset_csv(args.dataset)
    if not dataset:
        raise _Usage(f"dataset {args.dataset} has no rows")
    total = len(dataset) * len(cfg.algorithms)
    done = itertools.count(1)

    def progress(record):
        o = record.outcome
        print(
            f"[{next(done)}/{total}] {o.algorithm} n={o.n} {o.status} {o.elapsed_seconds:.3f}s",
            flush=True,
        )

    records = run_bench(dataset, cfg, progress=progress if args.progress else None)
    violations = verify_outcomes(records)
    if violations:
        raise _Usage("\n".join(violations))
    with _usage_on(f"cannot write {args.out}: ", OSError):
        write_results_csv(args.out, records)
    for algorithm in cfg.algorithms:
        counts = Counter(r.outcome.status for r in records if r.outcome.algorithm == algorithm)
        print(f"{algorithm}: " + " ".join(f"{s}={counts[s]}" for s in STATUSES))
    print(f"{len(records)} records written to {args.out}")
    return EXIT_OK


def _cmd_report(args) -> int:
    with _usage_on(f"cannot read results {args.results}: ", OSError, ValueError):
        records = read_results_csv(args.results)
    document = render_report(records)
    points = points_csv(records) if args.points_csv else None
    with _usage_on("cannot write report output: ", OSError), ExitStack() as undo:
        Path(args.out).write_text(document, encoding="utf-8")
        undo.callback(Path(args.out).unlink)  # run only if the points CSV fails
        if points is not None:
            Path(args.points_csv).write_text(points, encoding="utf-8")
        undo.pop_all()
    print(f"report written to {args.out}")
    return EXIT_OK


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.handler(args)
    except _Usage as exc:
        print(exc, file=sys.stderr)
        return EXIT_USAGE
    except BrokenPipeError:
        # the reader closed stdout; pointing it at devnull keeps the
        # interpreter's flush at exit from raising again (the SIGPIPE note
        # in the `signal` module's documentation)
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
