"""Factorization toolkit: pollard-rho, basic quadratic sieve, and a seeded
benchmark harness for comparing the two on semiprime datasets."""

from .arith import FIRST_TEN_PRIMES, is_probable_prime
from .bench import BenchConfig, BenchRecord, FactorOutcome, run_bench, verify_outcomes
from .errors import (
    BudgetExceeded,
    GenerationError,
    NotComposite,
    PerfectSquare,
    RestartsExhausted,
    RoundsExhausted,
)
from .gf2 import BitMatrix, Dependency, eliminate, row_xor_check
from .pollard import RhoConfig, RhoTrace, pollard_factor, rho_step
from .primegen import (
    DatasetSpec,
    Semiprime,
    generate_dataset,
    random_prime,
    random_semiprime,
)
from .report import complexity_models, head_to_head, render_report
from .sieve import (
    FactorBase,
    QsParams,
    QsTrace,
    Relation,
    build_factor_base,
    collect_relations,
    extract_factor,
    qs_factor,
    smooth_decompose,
)

__all__ = [
    "BenchConfig",
    "BenchRecord",
    "BitMatrix",
    "BudgetExceeded",
    "DatasetSpec",
    "Dependency",
    "FIRST_TEN_PRIMES",
    "FactorBase",
    "FactorOutcome",
    "GenerationError",
    "NotComposite",
    "PerfectSquare",
    "QsParams",
    "QsTrace",
    "Relation",
    "RestartsExhausted",
    "RhoConfig",
    "RhoTrace",
    "RoundsExhausted",
    "Semiprime",
    "build_factor_base",
    "collect_relations",
    "complexity_models",
    "eliminate",
    "extract_factor",
    "generate_dataset",
    "head_to_head",
    "is_probable_prime",
    "pollard_factor",
    "qs_factor",
    "random_prime",
    "random_semiprime",
    "render_report",
    "rho_step",
    "row_xor_check",
    "run_bench",
    "smooth_decompose",
    "verify_outcomes",
]

__version__ = "0.1.0"
