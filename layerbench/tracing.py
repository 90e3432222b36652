"""Spans recorded from outside the program, by wrapping the module-level
names that factorbench's own callers look up.

A wrapper replaces, say, `factorbench.sieve.eliminate`, so `qs_factor`
calls through it; every call leaves a span (name, parent span, start,
duration) in memory. Nothing under src/ changes. Spans are timed in
process CPU seconds, the clock of the benchmark's end-to-end metrics.
Checks that a hook runs after a wrapped call (the GF(2) properties of
`eliminate`) are timed on the same clock and subtracted from every span
open around them, so checking never counts as layer time.
"""

from __future__ import annotations

import importlib
import json
import statistics
from collections import Counter
from time import process_time

from checks import check_dependencies

# (module, name looked up by callers, span name). The attempt-level names are
# the bench module's own bindings of the two algorithms.
ATTEMPT_WRAPS = (
    ("factorbench.bench", "pollard_factor", "pollard.call"),
    ("factorbench.bench", "qs_factor", "sieve.call"),
)
LAYER_WRAPS = ATTEMPT_WRAPS + (
    ("factorbench.primegen", "generate_dataset", "primegen.generate"),
    ("factorbench.primegen", "is_probable_prime", "primegen.primality"),
    ("factorbench.pollard", "is_probable_prime", "arith.screen"),
    ("factorbench.sieve", "build_factor_base", "sieve.factor_base"),
    ("factorbench.sieve", "eliminate", "gf2.eliminate"),
    ("factorbench.sieve", "extract_factor", "sieve.extract"),
    ("factorbench.bench", "run_bench", "bench.run"),
    ("factorbench.bench", "verify_outcomes", "bench.verify"),
    ("factorbench.bench", "write_results_csv", "bench.write"),
    ("factorbench.report", "render_report", "report.render"),
)


class Tracer:
    """Installs wrappers, keeps spans and per-attempt traces in memory."""

    def __init__(self):
        self.spans: list[list] = []  # [name, parent index or -1, start, seconds]
        self.attempts: list[dict] = []  # one per algorithm call, in call order
        self.counts: Counter = Counter()
        self.violations: list[str] = []
        self.excluded = 0.0  # CPU seconds of checks run inside open spans
        self._stack: list[int] = []
        self._saved: list[tuple] = []

    def install(self, wraps) -> None:
        for module_name, attr, span_name in wraps:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(original, span_name))

    def uninstall(self) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    def _wrap(self, original, span_name):
        hook = getattr(self, "_after_" + span_name.replace(".", "_"), None)

        def wrapper(*args, **kwargs):
            index = len(self.spans)
            record = [span_name, self._stack[-1] if self._stack else -1, 0.0, 0.0]
            self.spans.append(record)
            self._stack.append(index)
            excluded_before = self.excluded
            result = error = None
            record[2] = start = process_time()
            try:
                result = original(*args, **kwargs)
                return result
            except Exception as exc:
                error = exc
                raise
            finally:
                record[3] = process_time() - start - (self.excluded - excluded_before)
                self._stack.pop()
                if hook is not None:
                    began = process_time()
                    hook(args, result, error)
                    self.excluded += process_time() - began

        return wrapper

    # Hooks run after the wrapped call returns or raises. The two algorithm
    # calls keep the trace that the bench module itself drops.

    def _after_pollard_call(self, args, result, error):
        trace = result[1] if result is not None else getattr(error, "trace", None)
        self.attempts.append({"algorithm": "pollard", "n": args[0], "trace": trace})

    def _after_sieve_call(self, args, result, error):
        trace = result[1] if result is not None else getattr(error, "trace", None)
        base = self.counts.pop("open_base_primes", 0)
        self.attempts.append({"algorithm": "qs", "n": args[0], "trace": trace, "base": base})

    def _after_sieve_factor_base(self, args, result, error):
        if result is not None:
            self.counts["open_base_primes"] = len(result.primes)

    def _after_sieve_extract(self, args, result, error):
        self.counts["extract_splits"] += result is not None

    def _after_gf2_eliminate(self, args, result, error):
        if result is None:
            return
        matrix = args[0]
        self.counts["gf2_rows"] += matrix.n_rows
        self.counts["gf2_cells"] += matrix.n_rows * matrix.n_cols
        self.counts["gf2_dependencies"] += len(result)
        self.violations.extend(check_dependencies(matrix.row_bits, result))

    def seconds(self, name: str) -> float:
        return sum(s[3] for s in self.spans if s[0] == name)

    def self_seconds(self, name: str) -> float:
        """Duration of the named spans minus what their child spans cover."""
        child = [0.0] * len(self.spans)
        for _, parent, _, seconds in self.spans:
            if parent >= 0:
                child[parent] += seconds
        return sum(s[3] - child[i] for i, s in enumerate(self.spans) if s[0] == name)

    def calls(self, name: str) -> int:
        return sum(1 for s in self.spans if s[0] == name)

    def write_spans(self, path) -> None:
        """One JSON line per span; spans under one algorithm call share its
        `attempt` id (the id of that call's span)."""
        root = []
        with open(path, "w", encoding="utf-8") as fh:
            for i, (name, parent, start, seconds) in enumerate(self.spans):
                root.append(i if name in ("pollard.call", "sieve.call") or parent < 0 else root[parent])
                line = {"id": i, "parent": parent, "attempt": root[i], "name": name}
                line.update(start=round(start, 9), seconds=round(seconds, 9))
                fh.write(json.dumps(line) + "\n")


def wrapper_cost(calls: int = 20000, repeats: int = 5) -> float:
    """CPU seconds one wrapped call adds to the call it wraps: the median
    over `repeats` of the extra time of `calls` wrapped no-op calls."""

    def noop():
        return None

    wrapped = Tracer()._wrap(noop, "noop")
    costs = []
    for _ in range(repeats):
        began = process_time()
        for _ in range(calls):
            noop()
        plain = process_time() - began
        began = process_time()
        for _ in range(calls):
            wrapped()
        costs.append((process_time() - began - plain) / calls)
    return statistics.median(costs)
