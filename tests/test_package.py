"""The package namespace: names and submodules resolve on first access."""

import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import fiberbundle

# every name the package re-exported when it imported its submodules eagerly,
# but LoadShareVector, which went when rules came to return share rows,
# absorbing_load_share and equal_load_share, which went when rules came to map
# batches of working sets, and the strength-vector class, which went when a
# strength vector came to be an array alone, and the one-field chain spec,
# which went when chain_strength came to take the chain length
_EXPORTED = {
    "distributions": ["StrengthModel", "unit_exponential"],
    "loadshare": [
        "AbsorbingRule", "ComponentGraph", "Configuration", "EqualRule",
        "NonMonotoneRuleError", "TransitionMatrix", "UnitRule", "absorption_probabilities",
        "build_grid_graph", "complete_graph_transition", "share_table", "transition_matrix",
        "verify_monotone",
    ],
    "cascade": [
        "BreakingPattern", "CascadeResult", "PatternCycle", "StructureFunction",
        "chain_strength", "cycles_to_failure", "cycles_to_failure_samples", "enumerate_patterns",
        "format_pattern", "parse_pattern", "replay_pattern", "sample_bundle_strengths",
        "simulate_cascade",
    ],
}
_SUBMODULES = ["cascade", "cli", "csvtext", "distributions", "gibbs", "loadshare", "stats",
               "threshold"]


@pytest.mark.parametrize("module, name", [(m, n) for m, ns in _EXPORTED.items() for n in ns])
def test_exported_name_is_the_modules_object(module, name):
    owner = importlib.import_module(f"fiberbundle.{module}")
    assert getattr(fiberbundle, name) is getattr(owner, name)
    namespace = {}
    exec(f"from fiberbundle import {name}", namespace)
    assert namespace[name] is getattr(owner, name)


def test_dir_lists_names_and_submodules():
    listed = set(dir(fiberbundle))
    assert {n for ns in _EXPORTED.values() for n in ns} <= listed
    assert set(_SUBMODULES) <= listed
    assert "__version__" in listed


def test_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        fiberbundle.no_such_name


def test_bare_import_loads_no_submodule_and_resolves_them_on_access():
    code = (
        "import sys, fiberbundle\n"
        "assert not [k for k in sys.modules if k.startswith('fiberbundle.')], sys.modules\n"
        "assert fiberbundle.cascade is sys.modules['fiberbundle.cascade']\n"
        "assert fiberbundle.EqualRule is sys.modules['fiberbundle.loadshare'].EqualRule\n"
    )
    src = str(Path(fiberbundle.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr


def test_only_the_cli_prints_and_each_logger_is_named_for_its_module():
    # library code logs through logging.getLogger("fiberbundle.<module>") and never prints
    for path in sorted(Path(fiberbundle.__file__).parent.glob("*.py")):
        module = "fiberbundle" if path.stem == "__init__" else f"fiberbundle.{path.stem}"
        tree = ast.parse(path.read_text())
        for node in (node for node in ast.walk(tree) if isinstance(node, ast.Call)):
            name = getattr(node.func, "id", getattr(node.func, "attr", None))  # f() or x.f()
            where = f"{path.name}:{node.lineno}"
            if name == "print":
                assert module == "fiberbundle.cli", f"{where} prints"
            elif name == "warn":  # warnings.warn(...) or warn(...)
                raise AssertionError(f"{where} warns; log the warning on the module's logger")
            elif name == "getLogger":
                # the CLI also gets the package's logger, to give it a stderr handler
                owned = {module, "fiberbundle"} if module == "fiberbundle.cli" else {module}
                arg = node.args[0] if node.args else None
                assert (isinstance(arg, ast.Name) and arg.id == "__name__"
                        or isinstance(arg, ast.Constant) and arg.value in owned), \
                    f"{where} gets a logger not named {module!r}"


def test_no_module_reads_another_modules_private_names():
    # a module's underscore names are its own: another module reads only its public ones
    for path in sorted(Path(fiberbundle.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text())
        modules = {a.asname or a.name for node in ast.walk(tree)  # from . import m, or
                   if isinstance(node, ast.ImportFrom)            # from fiberbundle import m
                   and (node.level, node.module) in ((1, None), (0, "fiberbundle"))
                   for a in node.names if a.name in _SUBMODULES}
        reads = [f"{path.name}:{node.lineno} reads {node.value.id}.{node.attr}"
                 for node in ast.walk(tree)
                 if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                 and node.value.id in modules and node.attr.startswith("_")]
        assert not reads, reads
