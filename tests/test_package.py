import importlib
import importlib.util
import sys
from pathlib import Path

import factorbench

LAYERBENCH = Path(__file__).resolve().parents[1] / "layerbench"


def test_public_names_resolve_once():
    names = factorbench.__all__
    assert len(names) == len(set(names))
    missing = [name for name in names if not hasattr(factorbench, name)]
    assert missing == []


def test_benchmark_hooks_resolve(monkeypatch):
    # the benchmark wraps these module-level names by name, some of which
    # (sieve.eliminate, pollard.is_probable_prime) nothing else here uses
    monkeypatch.syspath_prepend(str(LAYERBENCH))  # tracing imports its sibling `checks`
    spec = importlib.util.spec_from_file_location("layerbench_tracing", LAYERBENCH / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    try:
        spec.loader.exec_module(tracing)
    finally:
        sys.modules.pop("checks", None)
    wraps = tracing.LAYER_WRAPS
    assert wraps
    missing = [
        (module, name) for module, name, _ in wraps if not hasattr(importlib.import_module(module), name)
    ]
    assert missing == []
