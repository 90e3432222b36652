"""Exception types shared across the factoring algorithms and the bench harness."""

from __future__ import annotations


class FactorError(Exception):
    """Base class for what an algorithm raises in place of returning a factor.

    Every subclass but PerfectSquare is a failure to factor; PerfectSquare
    carries the square root, which the harness records as a success.
    Carries the partial trace (RhoTrace or QsTrace) when one exists, so the
    harness can still record iteration/round counters for attempts that
    stopped without a returned factor.
    """

    def __init__(self, message: str, trace=None):
        super().__init__(message)
        self.trace = trace


class NotComposite(FactorError):
    """The input passed the primality test; there is nothing to factor."""


class BudgetExceeded(FactorError):
    """The per-call time budget ran out at a polling point."""


class RestartsExhausted(FactorError):
    """Every rho restart ended in a full cycle without a nontrivial gcd."""


class RoundsExhausted(FactorError):
    """The sieve ran out of retry rounds without finding a factor."""


class PerfectSquare(FactorError):
    """The sieve was handed n = k*k; the root is reported out of band."""

    def __init__(self, n: int, root: int):
        super().__init__(f"{n} is a perfect square ({root}^2)")
        self.root = root


class GenerationError(Exception):
    """Semiprime resampling hit its attempt cap without an admissible product."""
