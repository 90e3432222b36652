import argparse
import ast
import builtins
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
from factorbench.cli import build_parser

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


def pinned_names():
    """module.name for each name tests/test_acceptance.py imports from a
    factorbench module: the surface the acceptance criteria pin."""
    tree = ast.parse((ROOT / "tests" / "test_acceptance.py").read_text())
    return {
        f"{node.module.split('.', 1)[1]}.{alias.name}"
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("factorbench.")
        for alias in node.names
    }


def definitions(node, prefix=""):
    """(qualname, node) for each function and class defined under node."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield prefix + child.name, child
            yield from definitions(child, prefix + child.name + ".")
        else:
            yield from definitions(child, prefix)


def module_assignments(tree):
    """(name, node) for each name a module-level assignment binds."""
    for node in tree.body:
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, ast.AnnAssign):
            targets = [node.target]
        else:
            continue
        for target in targets:
            for name in ast.walk(target):
                if isinstance(name, ast.Name):
                    yield name.id, node


def src_definitions():
    """(module, qualname, name, node) for each function, method, class and
    module-level assigned name under src/factorbench."""
    for path in sorted((ROOT / "src" / "factorbench").glob("*.py")):
        tree = ast.parse(path.read_text())
        yield from ((path.stem, qualname, node.name, node) for qualname, node in definitions(tree))
        yield from ((path.stem, name, name, node) for name, node in module_assignments(tree))


def src_definitions_without_a_use():
    """module.qualname of each non-dunder src_definitions() entry whose
    name no ast.Name or ast.Attribute in src/ reads, outside the definition
    itself."""
    uses = {}
    for path in sorted((ROOT / "src" / "factorbench").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.Name, ast.Attribute)):
                name = node.id if isinstance(node, ast.Name) else node.attr
                uses.setdefault(name, []).append((path.stem, node.lineno))
    return [
        f"{module}.{qualname}"
        for module, qualname, name, node in src_definitions()
        if not (name.startswith("__") and name.endswith("__"))
        and all(
            where == module and node.lineno <= line <= node.end_lineno
            for where, line in uses.get(name, [])
        )
    ]


def test_every_src_definition_has_a_production_use():
    # criterion 1 reads Relation.parity, and TIMEOUT_SLACK_SECONDS is the
    # slack the timeout tests hold bench to
    unpinned = {"sieve.Relation.parity", "bench.TIMEOUT_SLACK_SECONDS"}
    # a deleted definition takes its allowance with it
    defined = {f"{module}.{qualname}" for module, qualname, _, _ in src_definitions()}
    assert sorted(unpinned - defined) == []
    allowed = pinned_names() | unpinned
    assert {"pollard.pollard_factor", "report.avg_runtime_by_bitdiff"} <= allowed
    assert [name for name in src_definitions_without_a_use() if name not in allowed] == []


def test_no_src_module_reads_the_environment():
    # a run's settings come from its command line and the files it names
    reads = []
    for path in sorted((ROOT / "src" / "factorbench").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            name = getattr(node, "id", None) or getattr(node, "attr", None)
            if isinstance(node, ast.alias):
                name = node.name
            if name in {"environ", "getenv"}:
                reads.append(f"{path.name}:{node.lineno} {name}")
    assert reads == []


# What ends each `while` under src/, by (module, enclosing function, condition).
# A loop that no data bounds belongs in a `for` over a stated range instead.
WHILE_BOUNDS = {
    ("arith", "_tonelli_shanks", "t != 1"): "m falls each pass, and the inner loop raises at i == m",
    ("arith", "_tonelli_shanks", "t2 != 1"): "i rises each pass, and the loop raises at i == m",
    ("gf2", "XorBasis.add", "row"): "each pivot XOR clears row's top bit, so the top bit falls",
    ("gf2", "XorBasis.add", "combo"): "each pass clears combo's lowest set bit",
    ("sieve", "smooth_decompose", "rem % p == 0"): "rem //= p with p >= 2, and rem >= 1",
    ("sieve", "_root_levels", "roots"): "q grows by p each pass, and the flag level, q >= BLOCK, breaks",
    ("sieve", "_RelationScanner.advance", "power < BLOCK"): "power *= p with p >= 2",
    ("sieve", "_RelationScanner.advance", "i < done"): "i += q with q >= 2",
    ("sieve", "_RelationScanner.advance", "i < m"): "i += q with q >= 2",
    ("sieve", "_RelationScanner.advance", "k >= 0"): "hits.find searches a slice's hits below done from k + 1",
    ("sieve", "_RelationScanner.advance", "a % p == 0"): "a //= p with p >= 2, and a >= 1 as n is no square",
    ("sieve", "_RelationScanner.relations", "i >= 0"): "need.find searches the window's new part from i + 1",
    ("sieve", "_RelationScanner._divide", "note"): "note >>= NOTE_BITS each pass",
    ("sieve", "_RelationScanner._divide", "r % p == 0"): "r //= p with p >= 2, and r >= 1",
}


def while_loops(node, text, prefix=""):
    """(enclosing qualname, condition source) for each `while` under node."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield from while_loops(child, text, prefix + child.name + ".")
            continue
        if isinstance(child, ast.While):
            yield prefix.rstrip("."), ast.get_source_segment(text, child.test)
        yield from while_loops(child, text, prefix)


def test_every_src_while_names_its_bound():
    # the north star: no loop in the generator or the algorithms is unbounded
    loops = []
    for path in sorted((ROOT / "src" / "factorbench").glob("*.py")):
        text = path.read_text()
        loops += [(path.stem, *loop) for loop in while_loops(ast.parse(text), text)]
    assert ("sieve", "_RelationScanner.relations", "i >= 0") in loops
    assert [loop for loop in loops if loop not in WHILE_BOUNDS or loop[2] == "True"] == []
    assert sorted(set(WHILE_BOUNDS) - set(loops)) == []


def readme_text():
    """README.md less its code fences."""
    return re.sub(r"```.*?```", "", (ROOT / "README.md").read_text(), flags=re.S)


def readme_code_names():
    """The backticked dotted names in README.md, alone or called, whose
    first part is a factorbench module, less file names such as
    `report.md` and the metric names BENCHMARK.json lists."""
    modules = {m.name for m in pkgutil.iter_modules(factorbench.__path__)}
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = {m["name"] for m in bench["end_to_end"] + bench["per_layer"]}
    spans = re.findall(r"`([A-Za-z_]\w*(?:\.[A-Za-z_]\w*)+)(?:\([^`]*\))?`", readme_text())
    return {
        name
        for name in spans
        if name.split(".")[0] in modules
        and name not in metrics
        and name.rsplit(".", 1)[1] not in {"md", "json", "csv", "py"}
    }


def readme_camel_case_names():
    """The backticked bare CamelCase names in README.md, alone or called."""
    return set(re.findall(r"`([A-Z][a-z0-9]+[A-Z][A-Za-z0-9]*)(?:\([^`]*\))?`", readme_text()))


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
    camel = readme_camel_case_names()
    assert "RhoConfig" in camel
    modules = [builtins] + [
        importlib.import_module("factorbench." + m.name)
        for m in pkgutil.iter_modules(factorbench.__path__)
        if m.name != "__main__"  # importing it runs the CLI
    ]
    assert sorted(name for name in camel if not any(hasattr(m, name) for m in modules)) == []


def test_readme_and_cli_name_the_same_flags():
    (subcommands,) = [a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    options = {
        option
        for parser in subcommands.choices.values()
        for action in parser._actions
        for option in action.option_strings
        if option.startswith("--")
    }
    # the pip and pytest lines name those tools' flags, not the CLI's
    lines = (ROOT / "README.md").read_text().splitlines()
    text = "\n".join(line for line in lines if not re.match(r"\s*(pip|pytest)\b", line))
    readme = set(re.findall(r"(?<![\w-])--[a-z][a-z-]*", text))
    assert {"--algo", "--points-csv", "--help"} <= options
    assert sorted(readme - options) == []
    assert sorted(options - readme - {"--help"}) == []
