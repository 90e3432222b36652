"""Exception types shared across the factoring algorithms and the bench
harness, and the per-call Deadline whose check raises BudgetExceeded."""

from __future__ import annotations

import time


class FactorError(Exception):
    """Base class for what an algorithm raises in place of returning a factor.

    Each subclass is one way to fail to factor, and its `status` is the
    results CSV status the harness records for it. Every raise carries the
    call's trace (RhoTrace or QsTrace) as far as the call got, so the
    harness records iteration/round counters for attempts that stopped
    without a returned factor; a NotComposite's trace shows no work.
    """

    status: str

    def __init__(self, message: str, trace=None):
        super().__init__(message)
        self.trace = trace


class NotComposite(FactorError):
    """The input passed the primality test; there is nothing to factor."""

    status = "error"


class BudgetExceeded(FactorError):
    """The per-call time budget ran out at a polling point."""

    status = "timeout"


class Deadline:
    """The end of one call's time budget on time.monotonic(), fixed when it
    is made. A budget of None never ends; any other must be a positive
    number (NaN is not). `check` raises BudgetExceeded, carrying `trace`,
    once the end has passed."""

    def __init__(self, budget_seconds: float | None, trace=None):
        if budget_seconds is not None and not budget_seconds > 0:  # also rejects NaN
            raise ValueError("budget_seconds must be positive")
        self.end = None if budget_seconds is None else time.monotonic() + budget_seconds
        self.trace = trace

    def check(self) -> None:
        if self.end is not None and time.monotonic() > self.end:
            raise BudgetExceeded("the time budget ran out", self.trace)


class Exhausted(FactorError):
    """The search gave up within its budget: every rho restart ended in a
    full cycle without a nontrivial gcd, or the sieve used up its rounds."""

    status = "exhausted"


class GenerationError(Exception):
    """Semiprime resampling hit its attempt cap without an admissible product."""
