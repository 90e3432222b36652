import importlib
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
LAYERBENCH = ROOT / "layerbench"


def test_root_imports_no_module():
    # the package root is a plain namespace: importing it runs no submodule
    code = (
        "import sys, factorbench; "
        "print(sorted(m for m in sys.modules if m.startswith('factorbench')))"
    )
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    ).stdout
    assert out == "['factorbench']\n"


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
