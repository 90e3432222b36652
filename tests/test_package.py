import importlib
import importlib.util
import json
import operator
import os
import pkgutil
import re
import subprocess
import sys
from pathlib import Path

import factorbench

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


def readme_code_names():
    """The backticked dotted names in README.md, alone or called, whose
    first part is a factorbench module, less file names such as
    `report.md` and the metric names BENCHMARK.json lists."""
    modules = {m.name for m in pkgutil.iter_modules(factorbench.__path__)}
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = {m["name"] for m in bench["end_to_end"] + bench["per_layer"]}
    text = re.sub(r"```.*?```", "", (ROOT / "README.md").read_text(), flags=re.S)
    spans = re.findall(r"`([A-Za-z_]\w*(?:\.[A-Za-z_]\w*)+)(?:\([^`]*\))?`", text)
    return {
        name
        for name in spans
        if name.split(".")[0] in modules
        and name not in metrics
        and name.rsplit(".", 1)[1] not in {"md", "json", "csv", "py"}
    }


def test_readme_code_names_resolve():
    names = readme_code_names()
    assert "sieve.BLOCK" in names
    unresolved = []
    for name in sorted(names):
        module, attrs = name.split(".", 1)
        try:
            operator.attrgetter(attrs)(importlib.import_module("factorbench." + module))
        except AttributeError:
            unresolved.append(name)
    assert unresolved == []
