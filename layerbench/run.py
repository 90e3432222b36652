"""Layer-by-layer benchmark for factorbench.

Run from the repository root:

    python3 layerbench/run.py                       # every workload, untraced then traced
    python3 layerbench/run.py --workload sieve-54 --seed 0 --seconds 25 --trace 0
    python3 layerbench/run.py --workload grid-40-50 --trace 1 --outcomes outcomes.csv

Each run generates its workload's semiprimes from --seed with the
program's own generator, races them through `factorbench.bench.run_bench`
with one worker in one pass (a series of run_bench calls, see
workloads.plan), checks every output against computations made apart from
the program, and prints its metrics, one per line, then one JSON object as
the last line. A pass is sized to take about the run length,
BENCHMARK.json's run_seconds, on the reference host; it is the unit of
measurement, so its attempts and outcomes do not depend on --seconds.
--trace 0 gives the end-to-end metrics; --trace 1 runs the pass traced and
gives the per-layer metrics. The exit code is 0 when every check passes, 1
when one fails and 2 when factorbench's sources are not found under src/
next to this directory.
"""

from __future__ import annotations

import argparse
import csv
import json
import random
import statistics
import sys
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter, process_time

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".layerbench-out"

DEFAULT_SEED = 0
SETUP_REPEATS = 11
PROBE_EVERY = 0.25  # CPU seconds of attempts between two speed probes
RERUN_SAMPLE = 1  # attempts per algorithm rerun untraced after the pass
RELATION_SAMPLE = 1  # sieve successes per run rechecked against the reference scan
BUDGET_SECONDS = 180.0


def import_program():
    """factorbench from this checkout's src/, never from anywhere else."""
    if not (SRC / "factorbench" / "__init__.py").is_file():
        print(f"layerbench: no factorbench sources under {SRC}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    import factorbench

    if Path(factorbench.__file__).resolve().parent != SRC / "factorbench":
        print(f"layerbench: factorbench came from {factorbench.__file__}", file=sys.stderr)
        sys.exit(2)
    from factorbench import bench, primegen, report, sieve

    return bench, primegen, report, sieve


bench, primegen, report, sieve = import_program()

# Metric names and units come from the benchmark's definition, so the
# printed result and BENCHMARK.json cannot drift apart.
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
END_TO_END = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in SPEC["per_layer"]}

import checks  # noqa: E402  (after the path check, so a bare copy exits first)
from speed import SpeedLog  # noqa: E402
from tracing import ATTEMPT_WRAPS, LAYER_WRAPS, Tracer, wrapper_cost  # noqa: E402
from workloads import WORKLOADS, plan, pool_spec  # noqa: E402


def ratio(a, b) -> float:
    return a / b if b else 0.0


def timed_generation(spec, repeats):
    """Run the program's generator over the candidate pool `repeats` times,
    with a speed probe between each two. Returns the CPU seconds of each run
    scaled to the reference speed, and the pools it made."""
    log, pools = SpeedLog(every=0.0), []
    for _ in range(repeats):
        began = process_time()
        pools.append(primegen.generate_dataset(spec))
        log.add(process_time() - began)
        log.mark()
    log.close()
    return log.scaled(), pools


@dataclass
class Pass:
    wall: float  # seconds run_bench took, speed probes included
    cpu: float  # process CPU seconds run_bench took, speed probes excluded
    scaled: float  # cpu scaled to the reference speed
    records: list
    attempt_scaled: list  # each attempt's CPU seconds at the reference speed


def bench_config(algorithm, seed):
    return bench.BenchConfig(
        budget_seconds=BUDGET_SECONDS, algorithms=(algorithm,), seed=seed, workers=1
    )


def run_pass(calls, seed, tracer=None) -> Pass:
    """One pass: run_bench once per (algorithm, rows) call, with a speed
    probe between attempts at least every PROBE_EVERY CPU seconds. Its CPU
    time leaves out the probes and, with a tracer, the tracer's checks."""
    log = SpeedLog(PROBE_EVERY)
    original = bench.run_attempt
    probing = 0.0  # CPU seconds of the probes run inside the pass

    def timed_attempt(*args, **kwargs):
        nonlocal probing
        began = process_time()
        try:
            return original(*args, **kwargs)
        finally:
            log.add(process_time() - began)
            seconds = log.mark()
            probing += seconds
            if tracer is not None:
                tracer.excluded += seconds  # so no span counts a probe

    bench.run_attempt = timed_attempt
    before = tracer.excluded if tracer else 0.0
    try:
        t0, c0 = perf_counter(), process_time()
        records = [
            record
            for algorithm, rows in calls
            for record in bench.run_bench(rows, bench_config(algorithm, seed))
        ]
        wall, cpu = perf_counter() - t0, process_time() - c0
    finally:
        bench.run_attempt = original
    log.close()
    # probes, and with a tracer its checks, ran inside the pass
    cpu -= tracer.excluded - before if tracer else probing
    attempt_scaled = log.scaled()
    # what run_bench spends between attempts, at the pass's mean speed
    harness = cpu - sum(sum(seg) for seg in log.segments)
    scaled = sum(attempt_scaled) + harness * statistics.fmean(log.scales())
    return Pass(wall, cpu, scaled, records, attempt_scaled)


def percentile(values, q):
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def end_to_end(setup_times, measured: Pass):
    """Times are process CPU seconds scaled to the reference speed (see
    speed.py): the one process does all the work, and on a shared host both
    its wall time and its CPU time drift with the other tenants' load. The
    geometric mean over attempts weighs every attempt alike, where cpu_s is
    led by the few slowest sieve numbers; on grid-40-50 the short rho
    attempts carry four fifths of its weight."""
    return {
        "setup_s": statistics.median(setup_times),
        "cpu_s": measured.scaled,
        "attempt_cpu_gmean_s": statistics.geometric_mean(measured.attempt_scaled),
    }


def layer_metrics(tracer, overhead):
    attempts = [a for a in tracer.attempts if a["trace"] is not None]
    rho = [a["trace"] for a in attempts if a["algorithm"] == "pollard"]
    qs = [a for a in attempts if a["algorithm"] == "qs"]
    iterations = sum(t.iterations for t in rho)
    walk = tracer.self_seconds("pollard.call")
    scan = tracer.self_seconds("sieve.call")
    candidates = sum(a["trace"].final_m for a in qs)
    relations = sum(a["trace"].relations_found for a in qs)
    tried = sum(a["trace"].dependencies_tried for a in qs)
    return {
        "primegen.generate_s": tracer.seconds("primegen.generate"),
        "primegen.primality_calls": tracer.calls("primegen.primality"),
        "arith.screen_s": tracer.seconds("arith.screen"),
        "arith.screen_calls": tracer.calls("arith.screen"),
        "pollard.call_s": tracer.seconds("pollard.call"),
        "pollard.walk_s": walk,
        "pollard.iterations": iterations,
        "pollard.restarts": sum(t.restarts for t in rho),
        "pollard.iterations_per_s": ratio(iterations, walk),
        "sieve.call_s": tracer.seconds("sieve.call"),
        "sieve.scan_s": scan,
        "sieve.factor_base_s": tracer.seconds("sieve.factor_base"),
        "sieve.extract_s": tracer.seconds("sieve.extract"),
        "sieve.rounds": sum(a["trace"].rounds for a in qs),
        "sieve.candidates": candidates,
        "sieve.base_primes": sum(a["base"] for a in qs),
        "sieve.relations": relations,
        "sieve.candidates_per_s": ratio(candidates, scan),
        "sieve.relation_yield": ratio(relations, candidates),
        "sieve.dependencies_tried": tried,
        "sieve.dependency_yield": ratio(tracer.counts["extract_splits"], tried),
        "gf2.eliminate_s": tracer.seconds("gf2.eliminate"),
        "gf2.eliminate_calls": tracer.calls("gf2.eliminate"),
        "gf2.matrix_rows": tracer.counts["gf2_rows"],
        "gf2.matrix_cells": tracer.counts["gf2_cells"],
        "gf2.dependencies": tracer.counts["gf2_dependencies"],
        "bench.harness_s": tracer.self_seconds("bench.run"),
        "bench.verify_s": tracer.seconds("bench.verify"),
        "bench.write_s": tracer.seconds("bench.write"),
        "report.render_s": tracer.seconds("report.render"),
        "report.bytes": tracer.counts["report_bytes"],
        "trace.overhead_s": overhead,
    }


def check_pass(calls, seed, measured: Pass) -> list[str]:
    """The pass's records checked one by one, and a seeded sample of its
    attempts rerun untraced, outside the timed region: each must repeat the
    pass's outcome (status, factor, iterations or rounds, final B and M)
    exactly, so neither the tracing wrappers nor the order of attempts
    changes an outcome."""
    expected = [(sp, algorithm) for algorithm, rows in calls for sp in rows]
    bad = checks.check_records(expected, measured.records)
    if bad:
        return bad
    start = 0
    for algorithm, rows in calls:
        cfg = bench_config(algorithm, seed)
        rng = random.Random(f"rerun:{algorithm}:{seed}")
        for index in rng.sample(range(len(rows)), RERUN_SAMPLE):
            out = measured.records[start + index].outcome
            again = bench.run_attempt(
                algorithm,
                rows[index].n,
                primegen.derive_seed(seed, index, algorithm),
                BUDGET_SECONDS,
                cfg.qs_params,
            )
            fields = ("status", "factor", "iterations", "b_param", "m_param")
            if any(getattr(out, f) != getattr(again, f) for f in fields):
                bad.append(f"n={out.n} {algorithm}: a rerun disagrees with the pass's attempt")
        start += len(rows)
    return bad


def check_relation_sample(workload, seed, records) -> list[str]:
    """Rerun a seeded sample of sieve successes outside the timed region;
    their relation count must equal the reference scan's at the final
    (bound, window), and each reference relation must hold."""
    successes = [
        r for r in records if r.outcome.algorithm == "qs" and r.outcome.status == "success"
    ]
    random.Random(f"relations:{workload.name}:{seed}").shuffle(successes)
    bad, checked = [], 0
    for record in successes:
        if checked == RELATION_SAMPLE:
            break
        n, out = record.outcome.n, record.outcome
        factor, trace = sieve.qs_factor(n, None, BUDGET_SECONDS)
        if (factor, trace.rounds, trace.final_b, trace.final_m) != (
            out.factor,
            out.iterations,
            out.b_param,
            out.m_param,
        ):
            bad.append(f"n={n}: rerun of the sieve disagrees with the timed attempt")
        if trace.via_small_factor:
            continue  # no scan ran, so there is no relation count to compare
        fb = sieve.build_factor_base(trace.final_b)
        reference = sieve.collect_relations(n, fb, trace.final_m)
        if len(reference) != trace.relations_found:
            bad.append(
                f"n={n}: {trace.relations_found} relations found, reference scan has {len(reference)}"
            )
        bad += checks.check_relations(n, fb.primes, reference)
        checked += 1
    return bad


def write_outcomes(path, records, attempts) -> None:
    """One row per attempt, for diffing outcomes between two commits."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            ["n", "algorithm", "status", "factor", "work", "relations_found", "dependencies_tried"]
        )
        for record, attempt in zip(records, attempts):
            out, trace = record.outcome, attempt["trace"]
            qs = out.algorithm == "qs" and trace is not None
            writer.writerow(
                [
                    out.n,
                    out.algorithm,
                    out.status,
                    "" if out.factor is None else out.factor,
                    out.iterations,
                    trace.relations_found if qs else "",
                    trace.dependencies_tried if qs else "",
                ]
            )


def print_accounting(workload, measured: Pass) -> tuple[int, int]:
    attempted = failed = 0
    for algorithm in workload.algorithms:
        statuses = Counter(
            r.outcome.status for r in measured.records if r.outcome.algorithm == algorithm
        )
        total = sum(statuses.values())
        bad = total - statuses["success"]
        split = ", ".join(f"{s} {statuses[s]}" for s in bench.STATUSES)
        print(f"attempts {workload.name} {algorithm}: {total} attempted, {bad} failed ({split})")
        attempted += total
        failed += bad
    return attempted, failed


def print_algorithm_times(workload, measured: Pass) -> None:
    """Per-algorithm wall seconds per attempt, as FactorOutcome records
    them; p90 only with at least 100 attempts."""
    for algorithm in workload.algorithms:
        times = [
            r.outcome.elapsed_seconds for r in measured.records if r.outcome.algorithm == algorithm
        ]
        line = f"{algorithm}.attempt_p50_s {statistics.median(times):.6f} s"
        if len(times) >= 100:
            line += f", {algorithm}.attempt_p90_s {percentile(times, 90):.6f} s"
        print(f"{line} ({len(times)} attempts)")


def run_workload(workload, seed, seconds, trace, outcomes=None) -> int:
    # The host's speed drifts over seconds, so an untraced run times half
    # its set-up repeats before the pass and half after it.
    spec = pool_spec(workload, seed, primegen)
    early = 1 if trace else SETUP_REPEATS // 2 + 1
    setup_times, pools = timed_generation(spec, early)
    calls = plan(workload, pools[0])
    violations = checks.check_dataset(pools[0])
    sizes = ", ".join(
        f"{algorithm} on {sum(len(rows) for a, rows in calls if a == algorithm)} numbers"
        for algorithm in workload.algorithms
    )
    print(
        f"workload {workload.name} seed {seed} trace {trace}: {sizes} per pass in "
        f"{workload.per_group} waves, closed loop, one worker, one pass sized for a "
        f"{seconds:g} s run"
    )
    OUT_DIR.mkdir(exist_ok=True)
    stem = OUT_DIR / f"{workload.name}-seed{seed}"
    tracer = Tracer()
    if trace:
        tracer.install(LAYER_WRAPS)
        try:
            if primegen.generate_dataset(spec) != pools[0]:
                violations.append("traced generation differs from the untraced one")
            calls_before = len(tracer.spans)
            measured = run_pass(calls, seed, tracer)
            wrapped_calls = len(tracer.spans) - calls_before
            records = measured.records
            violations += bench.verify_outcomes(records)
            bench.write_results_csv(f"{stem}-results.csv", records)
            tracer.counts["report_bytes"] = len(report.render_report(records).encode("utf-8"))
        finally:
            tracer.uninstall()
        tracer.write_spans(f"{stem}-spans.jsonl")
        violations += tracer.violations
        per_call = wrapper_cost()
        metrics = layer_metrics(tracer, wrapped_calls * per_call)
        units = PER_LAYER
        print(
            f"tracing: {wrapped_calls} wrapped calls in the traced pass at "
            f"{per_call * 1e6:.2f} us each; spans in {stem}-spans.jsonl"
        )
    else:
        if outcomes:
            tracer.install(ATTEMPT_WRAPS)
        try:
            measured = run_pass(calls, seed)
        finally:
            tracer.uninstall()
        late_times, late_pools = timed_generation(spec, SETUP_REPEATS - early)
        setup_times += late_times
        if any(pool != pools[0] for pool in late_pools):
            violations.append("generator is not deterministic")
        metrics = end_to_end(setup_times, measured)
        units = END_TO_END
        print(f"wall_s {measured.wall} s, unscaled cpu {measured.cpu} s")
        print_algorithm_times(workload, measured)
    if outcomes:
        write_outcomes(outcomes, measured.records, tracer.attempts)
    began = perf_counter()
    violations += check_pass(calls, seed, measured)
    violations += check_relation_sample(workload, seed, measured.records)
    print(f"checks after the pass took {perf_counter() - began:.2f} s")
    attempted, failed = print_accounting(workload, measured)
    for name, unit in units.items():
        print(f"{name} {metrics[name]} {unit}")
    for message in violations[:20]:
        print(f"VIOLATION {message}")
    result = {
        "correct": not violations,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result), flush=True)
    return 1 if violations else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=["all", *WORKLOADS], default="all")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=SPEC["run_seconds"],
                        help="the run length; a run measures one pass, sized for "
                        "BENCHMARK.json's run_seconds, whatever this is")
    parser.add_argument("--trace", type=int, choices=[0, 1], default=None,
                        help="0: end-to-end metrics, 1: per-layer metrics (default: both)")
    parser.add_argument("--outcomes", metavar="CSV",
                        help="with one --workload: write one row per attempt of its "
                        "(traced) pass, for diffing outcomes between two commits")
    args = parser.parse_args(argv)
    if args.outcomes and args.workload == "all":
        parser.error("--outcomes needs a single --workload")
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    modes = [0, 1] if args.trace is None else [args.trace]
    code = 0
    for name in names:
        for trace in modes:
            outcomes = args.outcomes if trace == modes[-1] else None
            code |= run_workload(WORKLOADS[name], args.seed, args.seconds, trace, outcomes)
    return code


if __name__ == "__main__":
    sys.exit(main())
